package drift

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"justintime/internal/dataset"
	"justintime/internal/mlmodel"
)

// kiGoldenDigest is the SHA-256 of KI{Degree: 1}'s future models over
// jitd's default history (12 eras of 1200 rows, seed 1, T = 3): every
// weight, bias and threshold bit, in time order. The per-era fits may run
// in any order or in parallel; the models must not change.
const kiGoldenDigest = "f6e01ae671a3ed9a46d7919d7fa64b958ad15d626395f296fb04f2d6fc16a23c"

func TestKIGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned on amd64, running on %s", runtime.GOARCH)
	}
	d := dataset.MustGenerate(dataset.Config{Seed: 1, Eras: 12, RowsPerEra: 1200, LabelNoise: 0.04, DriftScale: 1})
	hist := make([]Era, d.Eras())
	for e := range hist {
		for _, ex := range d.Era(e) {
			hist[e].X = append(hist[e].X, ex.X)
			hist[e].Y = append(hist[e].Y, ex.Label)
		}
	}
	ms, err := KI{Degree: 1}.Generate(hist, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	u64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	for _, m := range ms {
		logit, ok := m.Model.(*mlmodel.Logistic)
		if !ok {
			t.Fatalf("KI model is %T, want *mlmodel.Logistic", m.Model)
		}
		for _, w := range logit.W {
			u64(w)
		}
		u64(logit.B)
		u64(m.Threshold)
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != kiGoldenDigest {
		t.Errorf("KI future models changed:\n got  %s\n want %s", got, kiGoldenDigest)
	}
}
