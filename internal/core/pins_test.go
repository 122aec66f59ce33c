package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/corpus"
	"repro/internal/fault"
)

// studyPins records, for both MAC configurations NewStudy is built with (the
// paper's default and the small one bench/ uses) and for every corpus
// scenario at ScaleSmall: the netlist fingerprint, the golden-trace
// fingerprint, an FNV-1a digest of the feature matrix's Float64bits and the
// checkpoint fingerprint of a 2-injections/FF ground-truth campaign. The
// values were written by the build before the study constructors merged
// (PR 21's parent) and must not be edited: however a study is wired, it is
// the same study.
const studyPins = `mac/default netlist=0f09e4187275e1af golden=08a348a0b7ef94d4 features=d219f32447a48bf4 checkpoint=e7bcc7d672083a9d
mac/small netlist=6a8d7b0586ac0934 golden=44e2bc5acaaebb8e features=1ddf764d57cf690c checkpoint=ecbbd11714a8c9c8
mac10ge/loopback netlist=6a8d7b0586ac0934 golden=244cc0d3a7aa904f features=141bb785fc18837d checkpoint=9bef00c3169447ec
mac10ge/bursty netlist=6a8d7b0586ac0934 golden=497fdebf923595c6 features=ebae8bd9f2322c3e checkpoint=231ca9eec419ad8c
alupipe/randomops netlist=dc3a99ede103c514 golden=65beacf8ec30c0d1 features=a15a59f30c3b0c03 checkpoint=d033b91578d38c22
alupipe/streaming netlist=dc3a99ede103c514 golden=1dcbc34f779f7f29 features=2beb0d1e24fd87b6 checkpoint=f8226f70d43571f5
rrarb/uniform netlist=92567c87594b8a98 golden=db6271004f3f5242 features=b59f00b43ab55af1 checkpoint=edf569f035d1af48
rrarb/hotspot netlist=92567c87594b8a98 golden=b3615a11bbd437ca features=4eacac1dbcfc33c5 checkpoint=34f940f86b7855b9
uartser/paced netlist=1f7e7f6ac08c230e golden=63e10641d59fa17d features=d8abf384f5143f83 checkpoint=b0ec8d39f4c3489d
uartser/burst netlist=1f7e7f6ac08c230e golden=b110a3fccf052d46 features=4c55383b0c13fee5 checkpoint=2869ebbe47ae4976
random/noise netlist=bb93e9b97665d4f2 golden=3629f7c93424e3d5 features=503d1f0f14ec600b checkpoint=8228b12ffb70c521
`

func pinLine(t *testing.T, name string, s *Study) string {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	for _, row := range s.Features.Rows {
		for _, v := range row {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	if _, err := s.RunGroundTruth(); err != nil {
		t.Fatalf("%s: ground truth: %v", name, err)
	}
	ck, err := fault.LoadCheckpoint(s.Config.Checkpoint)
	if err != nil {
		t.Fatalf("%s: loading checkpoint: %v", name, err)
	}
	return fmt.Sprintf("%s netlist=%016x golden=%016x features=%016x checkpoint=%016x\n",
		name, s.Netlist.Fingerprint(), s.GoldenTrace().Fingerprint(), h.Sum64(), ck.Fingerprint())
}

func TestStudyPins(t *testing.T) {
	var got strings.Builder
	for _, small := range []bool{false, true} {
		name := "mac/default"
		cfg := DefaultStudyConfig()
		if small {
			name = "mac/small"
			cfg.MAC = circuit.MACConfig{FIFODepth: 16, StatWidth: 8}
			cfg.Bench.Packets, cfg.Bench.MinPayload, cfg.Bench.MaxPayload = 6, 4, 6
		}
		cfg.InjectionsPerFF = 2
		cfg.Checkpoint = filepath.Join(t.TempDir(), "mac.ffr")
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.WriteString(pinLine(t, name, s))
	}
	for _, sc := range corpus.List() {
		s, err := NewCorpusStudy(sc, CorpusStudyConfig{
			Scale:           corpus.ScaleSmall,
			InjectionsPerFF: 2,
			Checkpoint:      filepath.Join(t.TempDir(), "corpus.ffr"),
		})
		if err != nil {
			t.Fatalf("%s: %v", sc.ID(), err)
		}
		got.WriteString(pinLine(t, sc.ID(), s))
	}
	if got.String() != studyPins {
		t.Errorf("study pins changed.\ngot:\n%s\nrecorded:\n%s", got.String(), studyPins)
	}
}
