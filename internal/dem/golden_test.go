package dem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

// goldenCircuit is one circuit whose extracted model is pinned bit for
// bit by TestDEMTextGolden.
type goldenCircuit struct {
	name  string
	build func() (*circuit.Circuit, error)
}

// goldenCircuits lists the pinned circuits in digest order: distance,
// then basis, then six circuits per (d, basis) — a spread-idle memory,
// four merges (plain, then lumped, spread and intra-round idle) and a
// 3-patch chain with per-patch idles. Together they cover every noise
// channel the surface builders emit, cycle stretching, and every idle
// placement a synchronization policy produces.
func goldenCircuits() []goldenCircuit {
	hw := hardware.IBM().Scaled(1000)
	const p = 1e-3
	var out []goldenCircuit
	for _, d := range []int{3, 5, 7} {
		for _, b := range []surface.Basis{surface.BasisX, surface.BasisZ} {
			tag := fmt.Sprintf("d%d/%v", d, b)
			merge := func(s surface.MergeSpec) func() (*circuit.Circuit, error) {
				s.D, s.Basis, s.HW, s.P, s.CyclePNs = d, b, hw, p, 1300
				return func() (*circuit.Circuit, error) {
					r, err := s.Build()
					if err != nil {
						return nil, err
					}
					return r.Circuit, nil
				}
			}
			out = append(out,
				goldenCircuit{tag + "/memory-spread300", func() (*circuit.Circuit, error) {
					r, err := surface.MemorySpec{D: d, Basis: b, HW: hw, P: p, SpreadIdleNs: 300}.Build()
					if err != nil {
						return nil, err
					}
					return r.Circuit, nil
				}},
				goldenCircuit{tag + "/merge", merge(surface.MergeSpec{})},
				goldenCircuit{tag + "/merge-lumped700", merge(surface.MergeSpec{LumpedIdleNs: 700})},
				goldenCircuit{tag + "/merge-spread700", merge(surface.MergeSpec{SpreadIdleNs: 700})},
				goldenCircuit{tag + "/merge-intra700", merge(surface.MergeSpec{IntraIdleNs: 700})},
				goldenCircuit{tag + "/chain3", func() (*circuit.Circuit, error) {
					r, err := surface.ChainSpec{D: d, K: 3, Basis: b, HW: hw, P: p,
						LumpedIdleNs: []float64{200, 0, 0}, SpreadIdleNs: []float64{0, 100, 0}}.Build()
					if err != nil {
						return nil, err
					}
					return r.Circuit, nil
				}},
			)
		}
	}
	return out
}

// goldenDEMDigests is the SHA-256 of Model.Text() per golden circuit. A
// changed digest means a symptom, its probability (to the last printed
// bit) or the error order moved.
var goldenDEMDigests = map[string]string{
	"d3/XX/memory-spread300": "67c7644eea3ccdf2ede1ebcf3c72761c50aebc503fb42cdbc850174f227ae079",
	"d3/XX/merge":            "78e1593aefb0a0049f909c189ab16b888e4ce8f5236734f869e61bbcda32823f",
	"d3/XX/merge-lumped700":  "95ee6f1a77520d71c987a6b7439fddbb69a7fbf6d6e5130d6420573b85dd1767",
	"d3/XX/merge-spread700":  "cd7933669bb66d2d2ada1c6d80bb47fce31d108f95cac66c0d7c39610249e6ce",
	"d3/XX/merge-intra700":   "c23bcde47460b0f6ecd2ff7042c7b4610dcfa5d570f9b47bccfcc9961f4ab6e2",
	"d3/XX/chain3":           "4e44b431342d7a0782350258f83f5f672df30240910fc5705398cf15c68b3a6a",
	"d3/ZZ/memory-spread300": "13a76c232f6330c5e3847b902a51dd309fffe7f2f1cfb2d2d03f3ed0e480ef3e",
	"d3/ZZ/merge":            "45b9c593d3a0975e1608d43e1d2aa2478b4676e09d2e5aefdcac4732a1ca9fbd",
	"d3/ZZ/merge-lumped700":  "2c8d32ca0227cf45fb40a6bbbe401493d092d6e697b31d80ee37b85fb2dba23e",
	"d3/ZZ/merge-spread700":  "033e8804f274cceb0adda72b33f9f81f5f5efe2e7a82fabc86d6dfcc4b614ce1",
	"d3/ZZ/merge-intra700":   "938a848c23c61dfd1ff95da5595450d825f62bdf6070490575b22c498a79b698",
	"d3/ZZ/chain3":           "45d64ac735d786b057664014bafe522d779e32216101e3243b94af8f4fd0fdef",
	"d5/XX/memory-spread300": "32228cc9952bc3eeec3adf367ec6649af63ce7c00bb7b780e4db7b26f0d2a4ef",
	"d5/XX/merge":            "9290da6f98a4f8563e7a7eac0e5679b677ce47eed1b84977c4110767d9174374",
	"d5/XX/merge-lumped700":  "a3f4fd66437a937cabc4b38c7e484d0cd0117b3eb3a103bbd7c11f854a6d7ef6",
	"d5/XX/merge-spread700":  "24366b843e8fc5ba2f47fb1997397dc0b8e4a614caa17803d723d88bc3578ee5",
	"d5/XX/merge-intra700":   "88431ebcac00e9b30d3d6fd0270282ad48288907338935fb763cd7f41fa66553",
	"d5/XX/chain3":           "7c2fc5b1edaf7e22640396480045b7b9aa50f3f2cd2293fb0de263a1ce1fbac9",
	"d5/ZZ/memory-spread300": "7905ee4df587c37a1b6e9e483be8511870b7082508ec5d2e2f4db02699dc6048",
	"d5/ZZ/merge":            "a19b3e8a87e471d9a25810bd628fc57f61676770c3397649cd575012a81aa2d4",
	"d5/ZZ/merge-lumped700":  "2cad0f294d6219d05767d7e5fe45d0b4e0880c80e02297e83b8f5e78047cb81c",
	"d5/ZZ/merge-spread700":  "cdcccfb6a8f498c499721b9b2b50175d0a6ab0d92953f5521fb4d9fccc4c0f41",
	"d5/ZZ/merge-intra700":   "02c2e5f83a561e0cd70052d3cfc300fff8fd7b3873efd9c56e7d8901c56f6efd",
	"d5/ZZ/chain3":           "0b1a7801b455f7b02a714a9a192fc0e3a11712db684f4c46e4d177e1e63bb835",
	"d7/XX/memory-spread300": "a8a4a8a5abc6e139d85c52839e258e25d63f2260f027aca5856a19ff5ef13698",
	"d7/XX/merge":            "97b67145fe416bf368b22eb0b5158d3f1b003886376347c774626ef20ea91838",
	"d7/XX/merge-lumped700":  "00ad8dfa116b14de839f964ed6872db0ea5fc2449c8547c6cff41928294d5ff9",
	"d7/XX/merge-spread700":  "e60372bc7ca531c1088f7422075bb86c302ab6c663eaaabf70b1995f968e562f",
	"d7/XX/merge-intra700":   "422b0bfe2065044ae442272cf6d51250a0dc17428092dafd54822c6c2f5ae05e",
	"d7/XX/chain3":           "55de2989cb044134109e385a7859db947e2a84e470087c8106d7ad736aac0c19",
	"d7/ZZ/memory-spread300": "5260fd96aa878a9cf5c1da5badedd2966e8f6a5565ed4f779914a6ee2ce34f8e",
	"d7/ZZ/merge":            "23263e0a5e6347091b838cf455bea4a0c677e990e0670cadc450bf318c7f83ab",
	"d7/ZZ/merge-lumped700":  "2f15934bf69a9408f6a59c4da47903c90d609d95a3fa8b02ee11c0888414985e",
	"d7/ZZ/merge-spread700":  "b5e7e31764e9275a62f42a1645cac4c661e0f0b50400074c5f49806ca813f854",
	"d7/ZZ/merge-intra700":   "20b5fac68323055b27a3543bf81283df7398df8fc1cdbb189cad3a852b6acf29",
	"d7/ZZ/chain3":           "815b5b6b4b030d62128071b11836c5efb9d154f86cd54b25a4066032f941bf6f",
}

// goldenDEMRollup is the SHA-256 of the 36 raw per-circuit digests
// concatenated in goldenCircuits order: a cross-check that the table
// above was not edited piecemeal.
const goldenDEMRollup = "b51ac1b0b8821ca1a218214a0f880338001278bb4d1147efe955a58afdca2348"

// TestDEMTextGolden pins the extracted model of every golden circuit:
// symptoms, probabilities and error order must reproduce the recorded
// text byte for byte.
func TestDEMTextGolden(t *testing.T) {
	circuits := goldenCircuits()
	if len(circuits) != len(goldenDEMDigests) {
		t.Fatalf("%d golden circuits, %d recorded digests", len(circuits), len(goldenDEMDigests))
	}
	rollup := sha256.New()
	for _, gc := range circuits {
		c, err := gc.build()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		sum := sha256.Sum256([]byte(FromCircuit(c).Text()))
		rollup.Write(sum[:])
		if got, want := hex.EncodeToString(sum[:]), goldenDEMDigests[gc.name]; got != want {
			t.Errorf("%s: DEM text digest %s, want %s", gc.name, got, want)
		}
	}
	if got := hex.EncodeToString(rollup.Sum(nil)); got != goldenDEMRollup {
		t.Errorf("rollup digest %s, want %s", got, goldenDEMRollup)
	}
}
