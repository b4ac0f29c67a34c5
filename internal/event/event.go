package event

import (
	"errors"
	"fmt"
	"unsafe"
)

// ID identifies an event within a System. IDs are small dense integers
// assigned by Define in increasing order, suitable for array indexing.
type ID int32

// NoID is returned by Lookup when an event name is unknown.
const NoID ID = -1

// Mode describes how an event activation was requested (paper section 2.2).
type Mode uint8

const (
	// Sync activation runs all bound handlers to completion before the
	// raise operation returns to the activator.
	Sync Mode = iota
	// Async activation enqueues the event; handlers run later from the
	// event loop with no guarantee about when.
	Async
	// Delayed activation is a timed event: it behaves like Async but
	// fires only after a specified delay.
	Delayed
)

// String returns the conventional short name for the mode.
func (m Mode) String() string {
	switch m {
	case Sync:
		return "sync"
	case Async:
		return "async"
	case Delayed:
		return "delayed"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Arg is a single named argument supplied to a raise or bind operation.
// Arguments travel by name, as in Cactus, so the set and order of
// arguments need not be known statically by either side.
//
// An Arg built with A (or as a literal) carries its value boxed in Val.
// The typed constructors Int, Int64, Bool, String and Bytes instead
// carry the payload unboxed, in the layout of log/slog.Value: Val holds
// an unexported kind marker (or, for strings and byte slices, the data
// pointer under an unexported pointer type) and a second word holds the
// integer or the length. Such an Arg marshals without a heap copy.
// Readers that want an `any` (Lookup, Pairs, Value) re-box it on demand
// into the dynamic type A would have stored, so the two forms are
// interchangeable to every reader.
type Arg struct {
	Name string
	Val  any
	w    uint64 // payload word of the typed constructors
}

// ArgKind reports how an Arg carries its value.
type ArgKind uint8

const (
	// KindAny is an Arg whose value is boxed in Val.
	KindAny ArgKind = iota
	// KindInt, KindInt64 and KindBool carry the value in the payload word.
	KindInt
	KindInt64
	KindBool
	// KindString and KindBytes carry a data pointer in Val and the length
	// in the payload word.
	KindString
	KindBytes
)

// The markers of unboxed payloads: intWord, int64Word and boolWord
// stand in Val for a scalar held in the payload word; stringPtr and
// bytesPtr are the data pointers of unboxed strings and byte slices.
// Their own unexported types keep them apart from any value a caller
// boxes, and none of them allocates when stored in Val.
type (
	intWord   struct{}
	int64Word struct{}
	boolWord  struct{}
	stringPtr *byte
	bytesPtr  *byte
)

// A returns an Arg; it exists to keep call sites short. A byte slice is
// stored unboxed, like Bytes, so it arrives with cap == len: no handler
// can append into the caller's spare capacity.
func A(name string, val any) Arg {
	if b, ok := val.([]byte); ok {
		return Bytes(name, b)
	}
	return Arg{Name: name, Val: val}
}

// Int returns an Arg carrying an int without boxing it.
func Int(name string, v int) Arg {
	return Arg{Name: name, Val: intWord{}, w: uint64(v)}
}

// Int64 returns an Arg carrying an int64 without boxing it.
func Int64(name string, v int64) Arg {
	return Arg{Name: name, Val: int64Word{}, w: uint64(v)}
}

// Bool returns an Arg carrying a bool without boxing it.
func Bool(name string, v bool) Arg {
	a := Arg{Name: name, Val: boolWord{}}
	if v {
		a.w = 1
	}
	return a
}

// String returns an Arg carrying a string without boxing its header.
func String(name, v string) Arg {
	return Arg{Name: name, Val: stringPtr(unsafe.StringData(v)), w: uint64(len(v))}
}

// Bytes returns an Arg carrying a byte slice without boxing its header.
// The slice is not copied, but it arrives with cap == len, so a
// handler's append reallocates instead of writing past v. A nil and an
// empty non-nil slice stay distinct.
func Bytes(name string, v []byte) Arg {
	return Arg{Name: name, Val: bytesPtr(unsafe.SliceData(v)), w: uint64(len(v))}
}

// Kind reports how a carries its value.
func (a Arg) Kind() ArgKind {
	switch a.Val.(type) {
	case intWord:
		return KindInt
	case int64Word:
		return KindInt64
	case boolWord:
		return KindBool
	case stringPtr:
		return KindString
	case bytesPtr:
		return KindBytes
	}
	return KindAny
}

// Value returns a's value as an `any`, boxing an unboxed payload into
// the dynamic type A would have stored (int, int64, bool, string or
// []byte).
func (a Arg) Value() any {
	switch p := a.Val.(type) {
	case intWord:
		return int(a.w)
	case int64Word:
		return int64(a.w)
	case boolWord:
		return a.w != 0
	case stringPtr:
		return unsafe.String(p, a.w)
	case bytesPtr:
		return unsafe.Slice(p, a.w)
	}
	return a.Val
}

// AsInt reads a as an int (0 unless it holds one).
func (a Arg) AsInt() int {
	switch v := a.Val.(type) {
	case intWord:
		return int(a.w)
	case int:
		return v
	}
	return 0
}

// AsInt64 reads a as an int64, accepting an int as well (0 otherwise).
func (a Arg) AsInt64() int64 {
	switch v := a.Val.(type) {
	case intWord, int64Word:
		return int64(a.w)
	case int64:
		return v
	case int:
		return int64(v)
	}
	return 0
}

// AsBool reads a as a bool (false unless it holds one).
func (a Arg) AsBool() bool {
	switch v := a.Val.(type) {
	case boolWord:
		return a.w != 0
	case bool:
		return v
	}
	return false
}

// AsString reads a as a string ("" unless it holds one).
func (a Arg) AsString() string {
	switch v := a.Val.(type) {
	case stringPtr:
		return unsafe.String(v, a.w)
	case string:
		return v
	}
	return ""
}

// AsBytes reads a as a byte slice (nil unless it holds one).
func (a Arg) AsBytes() []byte {
	switch v := a.Val.(type) {
	case bytesPtr:
		return unsafe.Slice(v, a.w)
	case []byte:
		return v
	}
	return nil
}

// Args is the marshaled argument record handed to handlers. The generic
// dispatch path builds one per raise (the marshaling cost the paper
// measures); handlers resolve their parameters from it by name (the
// unmarshaling cost).
type Args struct {
	pairs []Arg
}

// MakeArgs marshals a caller-side argument list into an Args record.
// The slice is copied so that the record remains stable even if the
// caller mutates its slice afterwards.
func MakeArgs(args []Arg) *Args {
	a := &Args{pairs: make([]Arg, len(args))}
	copy(a.pairs, args)
	return a
}

// Len reports the number of marshaled arguments.
func (a *Args) Len() int {
	if a == nil {
		return 0
	}
	return len(a.pairs)
}

// Get resolves a named argument without boxing it. Resolution is a
// linear scan, which models the name-directed unmarshaling performed by
// generic event frameworks.
func (a *Args) Get(name string) (Arg, bool) {
	if a != nil {
		for i := range a.pairs {
			if a.pairs[i].Name == name {
				return a.pairs[i], true
			}
		}
	}
	return Arg{}, false
}

// Lookup resolves a named argument as an `any` (see Arg.Value). It must
// stay within the inliner's budget: pipelines look their argument up in
// every handler, and an out-of-line Lookup costs them several percent.
func (a *Args) Lookup(name string) (any, bool) {
	if a != nil {
		for i := range a.pairs {
			if a.pairs[i].Name == name {
				return a.pairs[i].Value(), true
			}
		}
	}
	return nil, false
}

// Int resolves a named argument as an int; it returns 0 if the argument
// is absent or has a different type.
func (a *Args) Int(name string) int {
	p, _ := a.Get(name)
	return p.AsInt()
}

// Int64 resolves a named argument as an int64, accepting int as well.
func (a *Args) Int64(name string) int64 {
	p, _ := a.Get(name)
	return p.AsInt64()
}

// String resolves a named argument as a string ("" when absent).
func (a *Args) String(name string) string {
	p, _ := a.Get(name)
	return p.AsString()
}

// Bytes resolves a named argument as a []byte (nil when absent).
func (a *Args) Bytes(name string) []byte {
	p, _ := a.Get(name)
	return p.AsBytes()
}

// Bool resolves a named argument as a bool (false when absent).
func (a *Args) Bool(name string) bool {
	p, _ := a.Get(name)
	return p.AsBool()
}

// Names returns the argument names in marshal order. It is used by tests
// and by the profiler's argument-shape analysis.
func (a *Args) Names() []string {
	if a == nil {
		return nil
	}
	out := make([]string, len(a.pairs))
	for i := range a.pairs {
		out[i] = a.pairs[i].Name
	}
	return out
}

// Pairs returns a copy of the underlying name/value pairs with every
// value boxed in Val (see Arg.Value), so readers of Val see the values A
// would have stored.
func (a *Args) Pairs() []Arg {
	if a == nil {
		return nil
	}
	out := make([]Arg, len(a.pairs))
	for i, p := range a.pairs {
		out[i] = Arg{Name: p.Name, Val: p.Value()}
	}
	return out
}

// Errors reported by registry operations.
var (
	ErrUnknownEvent   = errors.New("event: unknown event")
	ErrDeletedEvent   = errors.New("event: event has been deleted")
	ErrDuplicateEvent = errors.New("event: duplicate event name")
	ErrStaleBinding   = errors.New("event: binding no longer present")
	ErrMissingArg     = errors.New("event: required argument missing")
)
