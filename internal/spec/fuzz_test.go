package spec

import (
	"bytes"
	"testing"

	"anondyn/examples/specs"
)

// FuzzParseEncode pins the parse → encode fixed point: every document
// Parse accepts encodes to bytes Parse accepts, and encoding the
// re-parsed sweep reproduces those bytes exactly. Encodings are
// compared rather than structs, because an empty list ("fs: []")
// decodes to an empty slice but is not written back, so it re-parses
// as nil. The corpus is seeded with every committed spec.
func FuzzParseEncode(f *testing.F) {
	for _, name := range specs.Names() {
		data, err := specs.Read(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := Parse(data)
		if err != nil {
			return
		}
		encoded := sw.Encode()
		again, err := Parse(encoded)
		if err != nil {
			t.Fatalf("the encoding of an accepted document does not parse: %v\n--- input\n%s\n--- encoding\n%s", err, data, encoded)
		}
		if reencoded := again.Encode(); !bytes.Equal(reencoded, encoded) {
			t.Fatalf("encode(parse(encode(s))) != encode(s):\n--- first\n%s\n--- second\n%s", encoded, reencoded)
		}
	})
}
