package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"eventopt/internal/event"
)

// multiDomainEntries is a v2-format exercise set: domain ids spread over
// several shards, including ones above the single-byte uvarint range.
func multiDomainEntries() []Entry {
	return []Entry{
		{Kind: EventRaised, Event: 0, EventName: "Push", Mode: event.Sync, Domain: 0},
		{Kind: HandlerEnter, Event: 0, EventName: "Push", Handler: "h-push", Domain: 0},
		{Kind: HandlerExit, Event: 0, EventName: "Push", Handler: "h-push", Domain: 0},
		{Kind: EventRaised, Event: 1, EventName: "Pop", Mode: event.Async, Domain: 1},
		{Kind: EventRaised, Event: 2, EventName: "Tick", Mode: event.Delayed, Domain: 3},
		{Kind: HandlerEnter, Event: 2, EventName: "Tick", Handler: "h-tick", Depth: 0, Domain: 3},
		{Kind: HandlerExit, Event: 2, EventName: "Tick", Handler: "h-tick", Depth: 0, Domain: 3},
		{Kind: EventRaised, Event: 7, EventName: "Far", Mode: event.Async, Domain: 200},
	}
}

func TestBinaryRoundTripMultiDomain(t *testing.T) {
	in := multiDomainEntries()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

// TestBinaryRoundTripWithExtensionRecords splices self-framing unknown
// records between known entries and checks the known entries — domains
// included — still round-trip.
func TestBinaryRoundTripWithExtensionRecords(t *testing.T) {
	in := multiDomainEntries()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Patch the declared entry count (uvarint right after the string
	// table) and append extension records after re-parsing the stream up
	// to the first entry. Easier: rebuild the stream by writing the
	// entries one at a time is not supported, so instead splice an
	// extension record at the very front of the entry list by bumping the
	// count and inserting the framed bytes there.
	br := bytes.NewReader(raw)
	header := make([]byte, 5)
	if _, err := io.ReadFull(br, header); err != nil {
		t.Fatal(err)
	}
	nStr, _ := binary.ReadUvarint(br)
	var pre bytes.Buffer
	pre.Write(header)
	var tmp [binary.MaxVarintLen64]byte
	put := func(w *bytes.Buffer, v uint64) { w.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	put(&pre, nStr)
	for i := uint64(0); i < nStr; i++ {
		l, _ := binary.ReadUvarint(br)
		put(&pre, l)
		s := make([]byte, l)
		io.ReadFull(br, s)
		pre.Write(s)
	}
	nEnt, _ := binary.ReadUvarint(br)
	rest, _ := io.ReadAll(br)

	ext := func(kind byte, payload []byte) []byte {
		var b bytes.Buffer
		b.WriteByte(kind)
		put(&b, uint64(len(payload)))
		b.Write(payload)
		return b.Bytes()
	}
	var spliced bytes.Buffer
	spliced.Write(pre.Bytes())
	put(&spliced, nEnt+3)
	spliced.Write(ext(9, []byte("future-telemetry-record")))
	spliced.Write(ext(200, nil))
	spliced.Write(rest)
	spliced.Write(ext(42, []byte{1, 2, 3}))

	out, err := ReadBinary(bytes.NewReader(spliced.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multiDomainEntries(), out) {
		t.Errorf("extension splice broke round trip:\n in=%+v\nout=%+v", multiDomainEntries(), out)
	}
}

func TestReadBinaryTruncatedTyped(t *testing.T) {
	in := multiDomainEntries()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Cut at every byte boundary: anything short of the full stream must
	// report ErrTruncated (never a raw io error, never success).
	for cut := 0; cut < len(raw); cut++ {
		_, err := ReadBinary(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d accepted", cut, len(raw))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: error %v is not ErrTruncated", cut, err)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			t.Fatalf("cut at %d: raw io sentinel leaked: %v", cut, err)
		}
	}
	// Structural corruption is NOT reported as truncation.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("bad magic: err = %v, want non-truncation error", err)
	}
}

// FuzzReadBinary feeds arbitrary bytes to the binary trace reader,
// which parses files handed in from outside (evprof -check -trace). It
// must never panic, and any input it accepts must survive a
// WriteBinary/ReadBinary round trip unchanged.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, liveTrace(f)); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	for _, cut := range []int{0, 4, 5, 6, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	f.Add(bad)
	f.Fuzz(func(t *testing.T, in []byte) {
		entries, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, entries); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("rewritten trace rejected: %v", err)
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("round trip changed entries:\n in=%+v\nout=%+v", entries, again)
		}
	})
}

// TestReadBinaryHugeStringCount: a header that claims the maximum string
// count but carries no strings must fail as truncated without the reader
// allocating for the claimed table.
func TestReadBinaryHugeStringCount(t *testing.T) {
	in := append([]byte("EVTR\x02"), binary.AppendUvarint(nil, 1<<24)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reader allocated %d bytes for a %d-byte input", grew, len(in))
	}
}
