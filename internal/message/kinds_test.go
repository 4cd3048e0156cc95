package message

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestKindTableComplete pins the recipe for adding a message type: every
// Type constant has exactly one table row (the table is indexed by tag, so
// never two), a unique name, a constructor of that kind, and a sample.
func TestKindTableComplete(t *testing.T) {
	if len(kinds) != int(TRejected)+1 {
		t.Fatalf("kind table has %d slots for tags up to %d", len(kinds), TRejected)
	}
	all := samples()
	names := map[string]Type{}
	for typ := TRequest; typ <= TRejected; typ++ {
		row := kinds[typ]
		if row.new == nil || row.name == "" {
			t.Errorf("Type %d has no row in the kind table", typ)
			continue
		}
		if other, dup := names[row.name]; dup {
			t.Errorf("types %d and %d share the name %q", other, typ, row.name)
		}
		names[row.name] = typ
		if got := row.new().Type(); got != typ {
			t.Errorf("row %v constructs a %v", typ, got)
		}
		if m, ok := all[typ]; !ok {
			t.Errorf("%v has no sample", typ)
		} else if m.Type() != typ {
			t.Errorf("sample for %v has type %v", typ, m.Type())
		}
	}
	if len(all) != len(names) {
		t.Errorf("%d samples for %d kinds", len(all), len(names))
	}
}

// TestGoldenWire compares every kind's encoding with the bytes the
// hand-written per-type codecs produced for the same sample (dumped at the
// commit before the kind table). Session journals on disk hold these
// encodings, so a layout change that moves a byte must fail here.
func TestGoldenWire(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, enc, _ := strings.Cut(line, " ")
		golden[name] = enc
	}
	for typ, m := range samples() {
		got := hex.EncodeToString(m.Marshal())
		want, ok := golden[typ.String()]
		if !ok {
			t.Errorf("no golden encoding for %v; a new kind adds the line:\n%v %s", typ, typ, got)
		} else if got != want {
			t.Errorf("%v encoding changed:\n got %s\nwant %s", typ, got, want)
		}
	}
}

// checkCanonical asserts the invariant Decode's cache priming rests on: a
// decoded message, re-encoded from its fields alone, yields the input, and
// its signable body is a prefix of it.
func checkCanonical(t *testing.T, m Message, in []byte) {
	t.Helper()
	c := m.(codable)
	*c.encoding() = enc{}
	if out := c.Marshal(); !bytes.Equal(out, in) {
		t.Fatalf("%v re-encoded from fields differs from the input:\n in  %x\n out %x", m.Type(), in, out)
	}
	if signed, ok := m.(interface{ SignedBody() []byte }); ok {
		*c.encoding() = enc{}
		if body := signed.SignedBody(); len(body) == 0 || !bytes.HasPrefix(in, body) {
			t.Fatalf("%v signed body is not a prefix of the wire encoding:\n wire %x\n body %x", m.Type(), in, body)
		}
	}
}

// FuzzDecode is the one fuzz target of every decoder: arbitrary bytes must
// fail cleanly or decode canonically — and alike through Decode and through
// a Decoder, one that lives across inputs, so its slabs turn over and its
// failed decodes fall between successful ones.
func FuzzDecode(f *testing.F) {
	for typ, m := range samples() {
		f.Add(m.Marshal())
		f.Add([]byte{byte(typ)})
	}
	d := new(Decoder)
	f.Fuzz(func(t *testing.T, b []byte) {
		in := bytes.Clone(b)
		m, err := checkSameDecode(t, d, in)
		if err != nil {
			return
		}
		if m.Type() != Type(b[0]) {
			t.Fatalf("tag %d decoded to %v", b[0], m.Type())
		}
		checkCanonical(t, m, b)
	})
}
