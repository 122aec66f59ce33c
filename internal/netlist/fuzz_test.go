package netlist

import (
	"bytes"
	"testing"
)

// Whatever bytes it is handed, Parse returns an error or a validated netlist
// that Write → Parse reproduces with the same Fingerprint; it never panics.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"design chain\ninput in\ninput in2\ncell ff0 DFF_X1 out=q0 in=in init=0\ncell u_inv INV_X1 out=n0 in=q0\n" +
			"cell ff1 DFF_X1 out=q1 in=n0 init=1\ncell u_and AND2_X1 out=y in=q1,in2\noutput out y\noutput q1\n",
		"# feedback through a mux\ndesign loop\ninput sel\ninput d\ncell u_mux MUX2_X1 out=n in=q,d,sel\ncell ff DFF_X2 out=q in=n init=0\noutput o q\n",
		"design tied\ncell u_tie TIEH out=one\ncell ff DFF_X1 out=q in=one init=0\noutput o q\noutput thru one\n",
		"design bad\ncell u INV_X1 out=y in=missing\n",
		"design combinit\ninput a\ncell u INV_X1 out=y in=a init=1\noutput o y\n", // used to parse, and lose its init in Write
		"design dup\ninput a\ninput a\n",
		"cell before design\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nl, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, nl); err != nil {
			t.Fatalf("writing what parsed: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("parsing what was written: %v\n%s", err, buf.Bytes())
		}
		if back.Fingerprint() != nl.Fingerprint() {
			t.Fatalf("fingerprint %#x became %#x across Write → Parse", nl.Fingerprint(), back.Fingerprint())
		}
	})
}
