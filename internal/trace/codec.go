package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"roadrunner/internal/units"
)

// The JSONL trace format: line 1 is a header object naming the trace and
// pinning the rank and record counts; every following line is one record
// in canonical order. All record fields are always present (NoPeer/NoDep
// where inapplicable), so the encoding is byte-canonical:
// Encode(Decode(x)) == x for every x Encode produced, which the
// round-trip property test pins.

// FormatName and FormatVersion identify the file format.
const (
	FormatName    = "roadrunner-trace"
	FormatVersion = 1
)

// maxLineBytes bounds one JSONL line; a record line is ~120 bytes, so
// this is generous headroom for header Attrs.
const maxLineBytes = 1 << 20

// headerLine is the wire form of Meta.
type headerLine struct {
	Format  string            `json:"format"`
	Version int               `json:"version"`
	Name    string            `json:"name"`
	App     string            `json:"app"`
	Ranks   int               `json:"ranks"`
	Records int               `json:"records"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// recordLine is the wire form of one Record. Field order here is the
// field order in the file.
type recordLine struct {
	Rank int    `json:"rank"`
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	Peer int    `json:"peer"`
	Tag  int    `json:"tag"`
	Size int64  `json:"size"`
	Dur  int64  `json:"dur"`
	At   int64  `json:"at"`
	Dep  int    `json:"dep"`
}

// Encode writes the trace as JSONL. The output is canonical: encoding
// the same trace always produces identical bytes (map attrs serialize
// with sorted keys, records in stored order).
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	h := headerLine{
		Format:  FormatName,
		Version: FormatVersion,
		Name:    t.Meta.Name,
		App:     t.Meta.App,
		Ranks:   t.Meta.Ranks,
		Records: len(t.Records),
		Attrs:   t.Meta.Attrs,
	}
	if err := encodeLine(bw, h); err != nil {
		return err
	}
	for _, r := range t.Records {
		l := recordLine{
			Rank: r.Rank,
			Seq:  r.Seq,
			Kind: string(r.Kind),
			Peer: r.Peer,
			Tag:  r.Tag,
			Size: int64(r.Size),
			Dur:  int64(r.Duration),
			At:   int64(r.At),
			Dep:  r.Dep,
		}
		if err := encodeLine(bw, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeLine marshals v and appends a newline.
func encodeLine(w *bufio.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// Decode parses a JSONL trace and validates it. Malformed input —
// syntax errors, a bad header, record-count mismatches, or any invariant
// violation Validate catches — returns an error; a trace Decode accepts
// is safe to replay. The returned trace is read-only (see Trace), so a
// caller may share one decode across concurrent replays.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: decode: %w", err)
		}
		return nil, fmt.Errorf("trace: decode: empty input")
	}
	var h headerLine
	if err := unmarshalStrict(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("trace: decode header: %w", err)
	}
	if h.Format != FormatName {
		return nil, fmt.Errorf("trace: decode header: format %q, want %q", h.Format, FormatName)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("trace: decode header: version %d, want %d", h.Version, FormatVersion)
	}
	if h.Records < 0 {
		return nil, fmt.Errorf("trace: decode header: negative record count %d", h.Records)
	}
	t := &Trace{
		Meta: Meta{Name: h.Name, App: h.App, Ranks: h.Ranks, Attrs: h.Attrs},
	}
	if h.Records > 0 {
		t.Records = make([]Record, 0, min(h.Records, 1<<20))
	}
	line := 1
	for sc.Scan() {
		line++
		var l recordLine
		if err := unmarshalStrict(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("trace: decode line %d: %w", line, err)
		}
		t.Records = append(t.Records, Record{
			Rank:     l.Rank,
			Seq:      l.Seq,
			Kind:     Kind(l.Kind),
			Peer:     l.Peer,
			Tag:      l.Tag,
			Size:     units.Size(l.Size),
			Duration: units.Time(l.Dur),
			At:       units.Time(l.At),
			Dep:      l.Dep,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if len(t.Records) != h.Records {
		return nil, fmt.Errorf("trace: decode: header promises %d records, file carries %d (truncated?)",
			h.Records, len(t.Records))
	}
	t.Normalize()
	m, err := newMatch(t, true)
	if err != nil {
		return nil, err
	}
	t.m = m
	return t, nil
}

// unmarshalStrict rejects unknown fields and trailing garbage, keeping
// the format tight enough that the canonical-encoding guarantee holds.
func unmarshalStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second value on the line is garbage.
	if dec.More() {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}

// Save writes the trace to a file.
func Save(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

// Load reads and validates a trace file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("trace: load %s: %w", path, err)
	}
	return t, nil
}
