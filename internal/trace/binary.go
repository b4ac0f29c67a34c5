package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"eventopt/internal/event"
)

// ErrTruncated reports a binary trace that ends mid-stream: inside the
// header, the string table or an entry record. Callers distinguish a
// cut-off capture (errors.Is(err, ErrTruncated)) from structural
// corruption such as a bad magic or an out-of-range string index.
var ErrTruncated = errors.New("truncated binary trace")

// Binary trace format: long profiling runs produce large traces (one
// entry per activation); the binary encoding interns event and handler
// names in a string table and varint-packs the rest, typically 5-10x
// smaller than the text form.
//
//	magic "EVTR" | version u8
//	numStrings uvarint | numStrings x (len uvarint, bytes)
//	numEntries uvarint | entries:
//	   kind u8 | event uvarint | depth uvarint | nameIdx uvarint
//	   | mode u8 (EventRaised)  OR  handlerIdx uvarint (H+/H-)
//	   | domain uvarint (version >= 2)
//
// Version 2 appends the event-domain index to each entry; version 1
// traces (no domain field) still read back with Domain 0.
//
// Extension records: a kind byte above HandlerExit introduces a record
// this reader version does not know. Such records are self-framing —
// the kind byte is followed by a uvarint payload length and that many
// payload bytes — and ReadBinary skips them, so v2 readers tolerate
// traces carrying future telemetry record types. Writers of new record
// kinds must use this framing (and must not renumber the core kinds).

var binaryMagic = [4]byte{'E', 'V', 'T', 'R'}

const binaryVersion = 2

// WriteBinary serializes entries in the binary format.
func WriteBinary(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}

	// Intern strings in first-seen order.
	index := make(map[string]uint64)
	var table []string
	intern := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint64(len(table))
		index[s] = i
		table = append(table, s)
		return i
	}
	type packed struct {
		kind             Kind
		ev, depth        uint64
		nameIdx, handIdx uint64
		mode             event.Mode
		dom              uint64
	}
	ps := make([]packed, len(entries))
	for i, e := range entries {
		ps[i] = packed{
			kind: e.Kind, ev: uint64(e.Event), depth: uint64(e.Depth),
			nameIdx: intern(e.EventName), mode: e.Mode, dom: uint64(e.Domain),
		}
		if e.Kind != EventRaised {
			ps[i].handIdx = intern(e.Handler)
		}
	}

	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(table))); err != nil {
		return err
	}
	for _, s := range table {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(ps))); err != nil {
		return err
	}
	for _, p := range ps {
		if err := bw.WriteByte(byte(p.kind)); err != nil {
			return err
		}
		if err := writeUvarint(p.ev); err != nil {
			return err
		}
		if err := writeUvarint(p.depth); err != nil {
			return err
		}
		if err := writeUvarint(p.nameIdx); err != nil {
			return err
		}
		if p.kind == EventRaised {
			if err := bw.WriteByte(byte(p.mode)); err != nil {
				return err
			}
		} else if err := writeUvarint(p.handIdx); err != nil {
			return err
		}
		if err := writeUvarint(p.dom); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// truncErr converts the raw io errors of a mid-stream read into
// ErrTruncated, keeping the position description; other errors pass
// through with the same context.
func truncErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("trace: %w: %s", ErrTruncated, what)
	}
	return fmt.Errorf("trace: %s: %w", what, err)
}

// ReadBinary parses a binary trace. A stream that ends mid-record
// returns an error wrapping ErrTruncated.
func ReadBinary(r io.Reader) ([]Entry, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, truncErr("binary header", err)
	}
	if [4]byte(magic[:4]) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:4])
	}
	version := magic[4]
	if version < 1 || version > binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}

	nStr, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncErr("string count", err)
	}
	const maxStrings = 1 << 24
	if nStr > maxStrings {
		return nil, fmt.Errorf("trace: implausible string count %d", nStr)
	}
	// The count is outside input: grow the table as strings arrive, so a
	// few header bytes cannot make the reader allocate for 1<<24 strings.
	table := make([]string, 0, min(nStr, 1024))
	for i := uint64(0); i < nStr; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, truncErr(fmt.Sprintf("string %d length", i), err)
		}
		if l > 1<<20 {
			return nil, fmt.Errorf("trace: implausible string length %d", l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, truncErr(fmt.Sprintf("string %d body", i), err)
		}
		table = append(table, string(b))
	}
	str := func(idx uint64) (string, error) {
		if idx >= uint64(len(table)) {
			return "", fmt.Errorf("trace: string index %d out of range", idx)
		}
		return table[idx], nil
	}

	nEnt, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncErr("entry count", err)
	}
	var entries []Entry
	for i := uint64(0); i < nEnt; i++ {
		at := func(field string) string { return fmt.Sprintf("entry %d %s", i, field) }
		kb, err := br.ReadByte()
		if err != nil {
			return nil, truncErr(at("kind"), err)
		}
		kind := Kind(kb)
		if kind > HandlerExit {
			// Unknown extension record: self-framing, skip its payload.
			l, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, truncErr(at(fmt.Sprintf("extension kind %d length", kb)), err)
			}
			if l > 1<<24 {
				return nil, fmt.Errorf("trace: entry %d: implausible extension payload %d", i, l)
			}
			if _, err := io.CopyN(io.Discard, br, int64(l)); err != nil {
				return nil, truncErr(at("extension payload"), err)
			}
			continue
		}
		ev, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, truncErr(at("event id"), err)
		}
		depth, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, truncErr(at("depth"), err)
		}
		nameIdx, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, truncErr(at("name index"), err)
		}
		name, err := str(nameIdx)
		if err != nil {
			return nil, err
		}
		e := Entry{Kind: kind, Event: event.ID(ev), EventName: name, Depth: int(depth)}
		if kind == EventRaised {
			mb, err := br.ReadByte()
			if err != nil {
				return nil, truncErr(at("mode"), err)
			}
			e.Mode = event.Mode(mb)
		} else {
			hIdx, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, truncErr(at("handler index"), err)
			}
			if e.Handler, err = str(hIdx); err != nil {
				return nil, err
			}
		}
		if version >= 2 {
			dom, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, truncErr(at("domain"), err)
			}
			e.Domain = int(dom)
		}
		entries = append(entries, e)
	}
	return entries, nil
}
