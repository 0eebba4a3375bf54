package surface

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"latticesim/internal/circuit"
	"latticesim/internal/hardware"
)

// goldenCircuit is one generated circuit whose Stim text is pinned byte
// for byte by TestCircuitTextGolden.
type goldenCircuit struct {
	name  string
	build func() (*circuit.Circuit, error)
}

// goldenCircuits lists the pinned circuits: for each hardware profile
// (IBM native, IBM scaled to a 1000 ns cycle, Google), distance 3 and 5
// and both bases, thirteen circuits — four memories, six merges and
// three chains. The variants place every idle a policy can produce
// (spread, lumped, intra-round), stretch cycles unequally, and let
// either patch or any chain patch set the merge round, so moving an
// idle, a preparation or a round between phases changes some digest.
func goldenCircuits() []goldenCircuit {
	const p = 1e-3
	hws := []struct {
		tag string
		hw  hardware.Config
	}{
		{"IBM", hardware.IBM()},
		{"IBM1000", hardware.IBM().Scaled(1000)},
		{"Google", hardware.Google()},
	}
	var out []goldenCircuit
	for _, h := range hws {
		hw, base := h.hw, h.hw.CycleNs()
		for _, d := range []int{3, 5} {
			for _, b := range []Basis{BasisX, BasisZ} {
				tag := fmt.Sprintf("%s/d%d/%v/", h.tag, d, b)
				memory := func(name string, s MemorySpec) goldenCircuit {
					s.D, s.Basis, s.HW, s.P = d, b, hw, p
					return goldenCircuit{tag + name, func() (*circuit.Circuit, error) {
						r, err := s.Build()
						if err != nil {
							return nil, err
						}
						return r.Circuit, nil
					}}
				}
				merge := func(name string, s MergeSpec) goldenCircuit {
					s.D, s.Basis, s.HW, s.P = d, b, hw, p
					return goldenCircuit{tag + name, func() (*circuit.Circuit, error) {
						r, err := s.Build()
						if err != nil {
							return nil, err
						}
						return r.Circuit, nil
					}}
				}
				chain := func(name string, s ChainSpec) goldenCircuit {
					s.D, s.Basis, s.HW, s.P = d, b, hw, p
					return goldenCircuit{tag + name, func() (*circuit.Circuit, error) {
						r, err := s.Build()
						if err != nil {
							return nil, err
						}
						return r.Circuit, nil
					}}
				}
				out = append(out,
					memory("memory", MemorySpec{}),
					memory("memory-spread300", MemorySpec{SpreadIdleNs: 300}),
					memory("memory-lumped500", MemorySpec{LumpedIdleNs: 500}),
					memory("memory-mixed", MemorySpec{SpreadIdleNs: 200, LumpedIdleNs: 500,
						Rounds: 5, CycleNs: base + 150}),
					merge("merge", MergeSpec{}),
					merge("merge-lumped700", MergeSpec{LumpedIdleNs: 700}),
					merge("merge-spread700", MergeSpec{SpreadIdleNs: 700}),
					merge("merge-intra700", MergeSpec{IntraIdleNs: 700}),
					merge("merge-unequal", MergeSpec{LumpedIdleNs: 300, SpreadIdleNs: 500, IntraIdleNs: 200,
						CyclePNs: base + 100, CyclePPrimeNs: base + 250,
						RoundsP: d + 3, RoundsPPrime: d + 1, RoundsMerged: d + 2}),
					merge("merge-pprime-late", MergeSpec{RoundsPPrime: d + 5}),
					chain("chain2", ChainSpec{K: 2}),
					chain("chain3-idles", ChainSpec{K: 3,
						LumpedIdleNs: []float64{200, 0, 150}, SpreadIdleNs: []float64{0, 100, 300}}),
					chain("chain4-full", ChainSpec{K: 4,
						CycleNs:      []float64{base, base + 150, 0, base + 325},
						Rounds:       []int{d + 1, d + 2, d + 4, 0},
						LumpedIdleNs: []float64{0, 250, 0, 100},
						SpreadIdleNs: []float64{500, 0, 200, 0},
						RoundsMerged: d}),
				)
			}
		}
	}
	return out
}

// goldenCircuitDigests is the SHA-256 of Circuit.Text() per golden
// circuit. A changed digest means an op, its arguments or the op order
// moved.
var goldenCircuitDigests = map[string]string{
	"IBM/d3/XX/memory":                "bdf31925135db4ed48467c9944cef8254e4d74003b8a4b8cc90ffbcb162f70e0",
	"IBM/d3/XX/memory-spread300":      "75b9179bdb613754b4a919348bfc66e3601deb1b13828f93ce06da7d1ca7ed4d",
	"IBM/d3/XX/memory-lumped500":      "4a527e0e39d28c689cea572dec2e067afccfa89fd006f7ed439c0b1f8b033bc7",
	"IBM/d3/XX/memory-mixed":          "10d3d0b61087de45fc1af81313d1a4f2629edc751e67a7c3ae21827f7e55b312",
	"IBM/d3/XX/merge":                 "3b38879cd4e837f050ffd204a64848939b4974e556df9db0bd71513d10b3b3a9",
	"IBM/d3/XX/merge-lumped700":       "67dd294fc647e1a21fd2d0017c4b7793c8eb8f9510825899101ce0c7d5195c6b",
	"IBM/d3/XX/merge-spread700":       "6fc7c157bc4d45ae3465ecdf1357ba39b7dac545146db8bb6796272b420a5e6d",
	"IBM/d3/XX/merge-intra700":        "9f3ae72c070d0e9a56f16f4a77cac8baa42776434266b190aa4ce14db81ab2ba",
	"IBM/d3/XX/merge-unequal":         "c404b3b5859489079e72214862356754a070390f1eb2b2d50b57356b16b3f162",
	"IBM/d3/XX/merge-pprime-late":     "e5ab95c9b43853ba6452739455afd6ea127a9363a95e436ffc4c5ff39fc97b05",
	"IBM/d3/XX/chain2":                "db68958038eb277ff14f420eee52937b975494992b8937d33785d3d23f73ea46",
	"IBM/d3/XX/chain3-idles":          "7ad912e3d32008e8aa018e797f0dd69dc77d14ee3f013027c95e9cf118339683",
	"IBM/d3/XX/chain4-full":           "44d995bcbe467dd1d8a366048bc4eb5b8181906b46d47a2e7089f726c9f8f277",
	"IBM/d3/ZZ/memory":                "e3ff9ae5558badd00b645c329d561d120d4eebb4c81ea539dc0a7d31fdaeb610",
	"IBM/d3/ZZ/memory-spread300":      "d85f91a7be2592fcb4e528d86965e1804cb4b87911a906e2110a0325cc52693b",
	"IBM/d3/ZZ/memory-lumped500":      "4990ccb046700785c1230129284bad536858ecb1c943792f1430c1466004b3c2",
	"IBM/d3/ZZ/memory-mixed":          "f62ea20f674b95dc524edb20cfe0fe4c7a21d8461c1951267c6f3273b9b217e7",
	"IBM/d3/ZZ/merge":                 "3f74f9e80b1a4d93c4df736560f26bd385ecb2b582c166a68236fa1aeb2c4a77",
	"IBM/d3/ZZ/merge-lumped700":       "48dcd932aca2c7bc3e549389cb2e469813fa1cd6cdcc8e1d3fbba6cc511fa509",
	"IBM/d3/ZZ/merge-spread700":       "6c8eb35b9db1f534e4d04f61c7f5831d48cfe8762e8b9fe38d8bbbd0e6bffc2f",
	"IBM/d3/ZZ/merge-intra700":        "aa1a95e027a8e45be8f74c6d1d1f8d2c20596f670a0909ee857ca19f9abbc5ce",
	"IBM/d3/ZZ/merge-unequal":         "f21e1bcb5a8cc557eafd493fbf60d05f8420a3c6b58b8effaeedbf9507d8f223",
	"IBM/d3/ZZ/merge-pprime-late":     "315a0e54960494d1ad30aba65319c5daa6a96741a5514cbc45ddae3932229fbd",
	"IBM/d3/ZZ/chain2":                "7d84d9839e11e86c13d2e6b15c00f4ce6862458b5a497518e199206cee7cd91c",
	"IBM/d3/ZZ/chain3-idles":          "f04ef06553e6cc8d4cfef55fbd22a029781f6ee6c4d8df7e1fffce58148470ab",
	"IBM/d3/ZZ/chain4-full":           "02c703000a240db2df0e4c5ee8f68e9a5a0ecd819df43b7386990b50f1052b3b",
	"IBM/d5/XX/memory":                "16553161c2ed3d5c033961bf8713f0824c9a301e62e213176a71b4971d0a69e2",
	"IBM/d5/XX/memory-spread300":      "7f8e79163581369b7359e84bed818af4cfdc7d73ce2ba418fdea5e9bdae69c7d",
	"IBM/d5/XX/memory-lumped500":      "b35c507fc1f8aa9b25b83a2cae19a1cb0e43bff5a98100d565f6c81c8f941724",
	"IBM/d5/XX/memory-mixed":          "3429866089fe4c4181874f92ef749bb50f7a3cd74b4f53cd70509dc1190d6e9c",
	"IBM/d5/XX/merge":                 "59111471745e285c0b4e06e69cdebcdfb33352388178f66c068fe9ac536a8ada",
	"IBM/d5/XX/merge-lumped700":       "8baf28ecc09f7ff2a48524fb89fb5cc983ec874298cbb2d6cf7d58a49660344f",
	"IBM/d5/XX/merge-spread700":       "4120d7e06356add169f16be72e973d3e3aee153a6a83c0f19bcfa4ff4bae9bfc",
	"IBM/d5/XX/merge-intra700":        "722e603719dcb014eadcce9188dccf23515d62fe498518b0c856ce23e3c8806c",
	"IBM/d5/XX/merge-unequal":         "c8390c5db1f089098ed99b69a6d5875c781e39c8b41e348206a19bbb7cfa74ef",
	"IBM/d5/XX/merge-pprime-late":     "3ebb30409bb47f65da94afef41c04857b2cab75be859545bc7851ebd917f9614",
	"IBM/d5/XX/chain2":                "bc5206f75ee5b8869bdcbc44e5ab3a6d38cb995c3a23793c9a88070a08869a37",
	"IBM/d5/XX/chain3-idles":          "5d94e5cc50b91ad1f787144b0e5298708fed733ca83c756fda158c573b469bed",
	"IBM/d5/XX/chain4-full":           "a4d526dd30c7d73087dedd416afc27c89a38afaca7bc65a78810ddcbfbfc90f6",
	"IBM/d5/ZZ/memory":                "c11506fb5cc645e51855d7fd6431cdf2a6ab5ef09603b09e05c366b958d9972e",
	"IBM/d5/ZZ/memory-spread300":      "a563cdca564aaad72ffe632940ebce9d92ec74df1f8a469a5e828435bfe7fd2d",
	"IBM/d5/ZZ/memory-lumped500":      "be42ad900bbae45150bbacf349632d70f96b3e57c994b967b9ab42f9cb83cf9e",
	"IBM/d5/ZZ/memory-mixed":          "0efc1884cbe5d412717b53ecf9f22f8806db025e6eea2893737fc48bb8281958",
	"IBM/d5/ZZ/merge":                 "462469a154a51f4abc629fa1d7381d891d3c9924ad4be9da42f5103091cfe93c",
	"IBM/d5/ZZ/merge-lumped700":       "7aca0f55a222d64b4e9d09780936401429c1c806b5e9eec4d00733647f11711d",
	"IBM/d5/ZZ/merge-spread700":       "ce8f0236fc2c7eeb4e0bdb11d1b93bf49c262a6cb8720560f6b19c425604c4d2",
	"IBM/d5/ZZ/merge-intra700":        "7ba0ad42e0e61df9968f3930dcd21f4a28aba45fd8468ebb0893b119bbb68e13",
	"IBM/d5/ZZ/merge-unequal":         "ebfb9c7b757bbe009ca1d78079075c422fea13eb279cf20713129f7cac11688e",
	"IBM/d5/ZZ/merge-pprime-late":     "258a38c8401d8cf60892a0ff3a34847acb34268ef9dacedf5def603756235186",
	"IBM/d5/ZZ/chain2":                "d24b7fe7707c5d0eb31075fc753d78ecc60ef007b1d91da2954f7e3fa7c56f52",
	"IBM/d5/ZZ/chain3-idles":          "d701b2590af031b657e7be76c9eb7cdd1c7514bb2944ef152aa140165929d845",
	"IBM/d5/ZZ/chain4-full":           "76aa09bc5a917ae595fb0016e6ffd1b3ded021296f41ed85155dd99946438e7d",
	"IBM1000/d3/XX/memory":            "2bff07fa9850370f6472c12f2e84ea3a089dd667c9ef86033aae80fea4433de2",
	"IBM1000/d3/XX/memory-spread300":  "3b2a35dca094ec52abb837aac2f59f27e8b522760a321dd845677eddb37255fc",
	"IBM1000/d3/XX/memory-lumped500":  "c500e3bd1caa8d0eddc2ac6d675e7fcdfb1539e4575e47f047aa97de04320756",
	"IBM1000/d3/XX/memory-mixed":      "45f16d20b348fa45cd338a48e0a192dc0bd85583bbb63303635d581dd7fda6d8",
	"IBM1000/d3/XX/merge":             "b73f92ecfaf2f7b503839b865b45c64f78eed4adf75a7c2cbc2838f11535e524",
	"IBM1000/d3/XX/merge-lumped700":   "b569affe9e15b0f77d664033fd651855439e3382ea104982141e5b42b169c761",
	"IBM1000/d3/XX/merge-spread700":   "7232883cb2c0e56cec52ceb725b93453764ea599a0576dfa358a64e9d6b9a384",
	"IBM1000/d3/XX/merge-intra700":    "c74d457b2fd4e1d4ceb5445e61c0a0af8d8ed01f141725b799d8471c1d42c991",
	"IBM1000/d3/XX/merge-unequal":     "5ea4c8b5fbcae56954a7efc9a53e8401280207a496be978204b79fe4477a5c6b",
	"IBM1000/d3/XX/merge-pprime-late": "39ca0bea1f17ba563a7547ce6762008215e53a5ddbacb8736666b6a7b7ff4536",
	"IBM1000/d3/XX/chain2":            "c583ff7b9eb30edca53a5ee6f03a0548331ef6fb1c4d1991e802115cc46892a7",
	"IBM1000/d3/XX/chain3-idles":      "a71851dd1f58311f6cb775b59148723bf14ceadc7e9ba4a238ec1ea4b607899d",
	"IBM1000/d3/XX/chain4-full":       "e4896bd2a4903294132f58145cb4dbf3af59e6ee9186e1b7cbb7f45a7ec61be4",
	"IBM1000/d3/ZZ/memory":            "68369a1e9a5d2c6613d025b0745b4ca79bab7946e920b09e470db484c7a66df7",
	"IBM1000/d3/ZZ/memory-spread300":  "8524006204c7b873b5012b6490e101a3366ea5c6f5203b6379955904217a1bce",
	"IBM1000/d3/ZZ/memory-lumped500":  "7b4ec891577e48dc25ae727576afc22dadf423d3f990def7be6603dddf5ac186",
	"IBM1000/d3/ZZ/memory-mixed":      "a244e90fa31624d1d47871b2fb24af78e79e33c308a85bf33e9a2b6f2163b5d9",
	"IBM1000/d3/ZZ/merge":             "9ac36c9a60ae8e76be84d551706987aa0c2c331374a6dfc90f7c07e0ac4673e1",
	"IBM1000/d3/ZZ/merge-lumped700":   "f3f01ba1fdaab868ea17eead045338c95c24419e458c4ac4578d9eb4252ff4e1",
	"IBM1000/d3/ZZ/merge-spread700":   "04bc5d50f5a278ce6d497d81aeec881a24b3f8e60ab7fabe4850eb78d712899b",
	"IBM1000/d3/ZZ/merge-intra700":    "f85f543c6acdab0071db61bc250bd6b43500cd345a6f949e3ae66fc7b7fa9275",
	"IBM1000/d3/ZZ/merge-unequal":     "380b0b8020b79561802962729979ea692eb32563640969d9f489cd0c447c72b7",
	"IBM1000/d3/ZZ/merge-pprime-late": "7b0ea9618fa9871c4e6d25bb7fd1c3a9ae9cdc8d411cfa09fd753dddd9ba7acf",
	"IBM1000/d3/ZZ/chain2":            "a9a1a2a85646264f33f83d335b7a33c3395bd6527f7856f194bbe5868627c6ec",
	"IBM1000/d3/ZZ/chain3-idles":      "70e831e6123ec0c7ead22477ed9b8515a6be655a69cd4c4160edadfc5495eace",
	"IBM1000/d3/ZZ/chain4-full":       "412b63e2ae4414523dedbe4f572e0a6c4bd344bfa1f09a1b7294dea67ac816d7",
	"IBM1000/d5/XX/memory":            "b8484ae7e5c063bcb11ed795c7eecd45c6f73aac99949c80971e1be91dc12033",
	"IBM1000/d5/XX/memory-spread300":  "012ccbee9e220f2ebf86d16a27dd55dc3075c3177cfb4a8c6302bb5284d82dfc",
	"IBM1000/d5/XX/memory-lumped500":  "9ce47ca62ebcc670468f54865206e5f122fe39a2d9be97804957b6a2fb59e9ee",
	"IBM1000/d5/XX/memory-mixed":      "c800f1c386f4a891bb1d2d9b27dc5fa04cf2bde70ee25af817359518dc00308b",
	"IBM1000/d5/XX/merge":             "1cc1b5d01e97a19764e7f6195fe2c7c8e627aa4a5367dbeb0167ef12689f59b9",
	"IBM1000/d5/XX/merge-lumped700":   "6566b47c8976b659e4b8e7f04a6c4f6ca03fe49f8cdc23433f5f43cfdebd55ce",
	"IBM1000/d5/XX/merge-spread700":   "95535f04b0963b020dfe3a247cdabb0e6c96d8d31e6825d4307298e14c8da8a9",
	"IBM1000/d5/XX/merge-intra700":    "25be2db3d90662bd1b1062fb1630a26e9055ed3ae5df0a3af0065ba96c38c00d",
	"IBM1000/d5/XX/merge-unequal":     "087eb4bdedd184dfc28130b3fbd5506cd3b14dc6ed06f59e751982eaec03727e",
	"IBM1000/d5/XX/merge-pprime-late": "b9e9c0b7ee148cba0959503f6fdfb2961090d575247eb80ca7e134d12fca7859",
	"IBM1000/d5/XX/chain2":            "e6d9c4617d0905836f97bfb9eedda6352a7acceb9c22c8cfed2c182476d91da9",
	"IBM1000/d5/XX/chain3-idles":      "2dea1b8eb5cab58341bb1feee905d0c2c7f6d38c49fc89606e13406fd34ff2c4",
	"IBM1000/d5/XX/chain4-full":       "64da02de8c5eff24d38e0efd98849e227a5f132bd352d5ff7e826e16b24a64e4",
	"IBM1000/d5/ZZ/memory":            "b51689b8c5add9376e1c13ac677094b97e390c28651186f23ded033d2fac5ddb",
	"IBM1000/d5/ZZ/memory-spread300":  "4e42d5c323aaf18276d353288edfdff201aa8d5909010ed0d17b2b64cb626d26",
	"IBM1000/d5/ZZ/memory-lumped500":  "e5bbbf7f5d3c052b83002130d57e0538fe3364243941e2328eac946917ac13c9",
	"IBM1000/d5/ZZ/memory-mixed":      "61dd24c6435d57500c41f03ed063e44743b2c8cec3f9cb1e139d0309df02aae3",
	"IBM1000/d5/ZZ/merge":             "6d9bfa665c6a071e0bb3d1cc41bb03ad1d5184893ea8750d5666d94ffc30773b",
	"IBM1000/d5/ZZ/merge-lumped700":   "a7a01cd391b90dca3acecb15c87f7b196a3cfa008f7ed52825ca6cef203702b8",
	"IBM1000/d5/ZZ/merge-spread700":   "cdd8b259b39a06d2bb8045fed58d3d73eee6768c5e1c140a29aa3ccd2cc597ec",
	"IBM1000/d5/ZZ/merge-intra700":    "8802d6c14de6df665137b1a1f5f7940fe5c52297f6a33ce5693139aa80dc9d85",
	"IBM1000/d5/ZZ/merge-unequal":     "7e05934e9c9d10a1a5e77f67c65f7b7d408282d8fb875b5abede0c313892b1f6",
	"IBM1000/d5/ZZ/merge-pprime-late": "0e2103415366dddb44b930ae37bf1728f5f0a4b2706bd7dcc586a1903f2e9808",
	"IBM1000/d5/ZZ/chain2":            "3ee0dfe09a2d613b98e15f235e9a05a546ae92167d87b7f2c95b4f3693643ba3",
	"IBM1000/d5/ZZ/chain3-idles":      "d9b5dc266260e07970070649d3cd00361550757d5e3bd21105005931456281a8",
	"IBM1000/d5/ZZ/chain4-full":       "b87ec2847bbca055a8956050af1e4f2c2925db5e5f7200a55200762f06d200b8",
	"Google/d3/XX/memory":             "2ff187c63a05b2a497623cd1933d95fe65e7fe77e079cb6a3d7977d178ea12ff",
	"Google/d3/XX/memory-spread300":   "3b70d0af2597795875e233ed2f3510bf3b02621d837718160c7e8e7cbf239d43",
	"Google/d3/XX/memory-lumped500":   "4f03d25b7968dab33f7db9acf643fe712a340116348dcf407359e966f047d890",
	"Google/d3/XX/memory-mixed":       "20005fdca249522fdeef3b8161d164938cad324f93b82d986db66ade234c7276",
	"Google/d3/XX/merge":              "59c051b30de53834816643878a5762d8a04ff7e16eeac224e131de0766ad00c6",
	"Google/d3/XX/merge-lumped700":    "0faadaa2c32ba4bf313ab021a00866a4b2b37a01d7707ce02d2cfbf47bfd65b8",
	"Google/d3/XX/merge-spread700":    "8d97571d5c5a598dce40c2c2bd4e2f82fdcd2f10bac11e6e3ba8aed8c616487a",
	"Google/d3/XX/merge-intra700":     "c5df7536152b6c06c9757f125f361a2306b17f8e424708d5defaec068592a95f",
	"Google/d3/XX/merge-unequal":      "161ad3f5bcf7884e53140d5053f74eeb14c4a18b65e21e220e1a5126e3206140",
	"Google/d3/XX/merge-pprime-late":  "db3b176ddd5c06f3d3fbe2929586b2c65237c359b7d564257895941e83a0f07d",
	"Google/d3/XX/chain2":             "10f926d2c08c25b10c5bc3356651c00a36f0aa74d6c535676e31fc7391497816",
	"Google/d3/XX/chain3-idles":       "dd2ee6a94e3b364492868490bb20957ae6cc7fe8951d3df1150ebdda4ec451c1",
	"Google/d3/XX/chain4-full":        "2c8bd04dd642ce09b91ab1afdfe0f56db9e53a3b5ecfa8b3136a0c6dbe03e279",
	"Google/d3/ZZ/memory":             "df2f2b46e47147d626948ba4cb358e656d90cf1d2893ffc6f7b0a938de8fb72e",
	"Google/d3/ZZ/memory-spread300":   "a9a1cf70ae0823e1e9d050f84b664e99fe806d2c2ba4baae43045ff1f34594d6",
	"Google/d3/ZZ/memory-lumped500":   "aea7b3d2dac39f900747f82b88e1e2333928a95d35da0ea4e18c1914fccc4327",
	"Google/d3/ZZ/memory-mixed":       "8180cea864883e18e2e218a0fccb6ef1ae31b2b802f4c5e22e522d378670a831",
	"Google/d3/ZZ/merge":              "c7305e5cc68c07b1d9f75262c71034c85952e84736fe4991d9a482a0c958e82d",
	"Google/d3/ZZ/merge-lumped700":    "e4c05e8ac501334728238df097aeb5a1a096425a05b82df17d35630f8a6584fd",
	"Google/d3/ZZ/merge-spread700":    "773ae079266044f60a25e3999f6c8611c92a41bcf9451fee0967415c905542f2",
	"Google/d3/ZZ/merge-intra700":     "eaed347d91d2ae4a1f11773375d211c8ef266902dcc5c7779d55dc3b8bf0da90",
	"Google/d3/ZZ/merge-unequal":      "5a232a4149cdbb9ecca4fe4260b51c7b52bd71a628cdbdb106427e3dacbe8b31",
	"Google/d3/ZZ/merge-pprime-late":  "03991607c262a4707c5b1df4a310f507cbd5cef397112182708b9c2d317cd5f3",
	"Google/d3/ZZ/chain2":             "791e4274006580b1d46451d0647953357c8465974b06f3ff403448e1bf872c58",
	"Google/d3/ZZ/chain3-idles":       "5d2f19bbc1fed6625e429f3358df023d0ad74188ce7923c156555094e00f385d",
	"Google/d3/ZZ/chain4-full":        "1774df02f906e6aba57b689fea3bdbf1f492f5cfcafa85ecdc871e88acf4834a",
	"Google/d5/XX/memory":             "f76bacf08fe0ce4e328ec170346d43957ab6aeba97dad84162434a4761634add",
	"Google/d5/XX/memory-spread300":   "756104db5a205d5cd0dc79f47747e623181b08b4bbc09149f97b1ea04ddc4950",
	"Google/d5/XX/memory-lumped500":   "e4e5e0db6e07b16ac3f0d5a083f0db9c368f9caa2a6c8fab69e2312257239bdc",
	"Google/d5/XX/memory-mixed":       "705bfdf7183fa820ad1ca98b82aec7a428b05d3bcd677867fa52cedbd3f3c825",
	"Google/d5/XX/merge":              "e7937a9b76e8c717179647ba16c3c84ad5da354c4d2cf262d5e61b2f91d46c4a",
	"Google/d5/XX/merge-lumped700":    "c2587096960aeee6eed7bd878e9ed41bee2ce504598603495acb1f43a974bfed",
	"Google/d5/XX/merge-spread700":    "81a626b56fb81cfa99fe3c752fa2e173ca7459b4221dac62832c1eb424ca5df3",
	"Google/d5/XX/merge-intra700":     "ee76594845b00b9f1a585ea2eb0978b386d52addbe44fd7fb23ed18e8caae369",
	"Google/d5/XX/merge-unequal":      "3e4feb5dd9f8f6ceaf5316cc9022e038e5f4dce2ecb93f8542abccd054a1308f",
	"Google/d5/XX/merge-pprime-late":  "40357da6d568c0c91d99333256738cdaaa690abd0c072b35e22dd47a6661b199",
	"Google/d5/XX/chain2":             "cde7492712b3d30b9d6810c6deaa8870ff1264d40649a7fffb68c77ef9502027",
	"Google/d5/XX/chain3-idles":       "eaad5344cb5e21cd3f2d57e0116a343898b94bf565bb1391e5c31aaa7e98a1e7",
	"Google/d5/XX/chain4-full":        "d1413f606f3e20cff8f79dacf8e33e0923b3382424622752804b646c519f5ae5",
	"Google/d5/ZZ/memory":             "24fb722242b7452f8ff7d7b365e4ff1bd9db11da622c40a00c57b2f500b66925",
	"Google/d5/ZZ/memory-spread300":   "e77fff4a1fcb5bde64e51feb95e26d3d9aba2a516f5e52a961e674981e2ecea2",
	"Google/d5/ZZ/memory-lumped500":   "f26496457581e1d2bcaec7ef0861da06ca0854bdd029a886134975f99e8f0017",
	"Google/d5/ZZ/memory-mixed":       "64da2f91652f3139a5d6ccbc98e2dbb6e5ebc9b1c04e9bcf916c4e0d8b5e25d5",
	"Google/d5/ZZ/merge":              "1153b0172abd949d4d083c8a55c300856f6d18b2b90c48bf1bdfe03ed1320c69",
	"Google/d5/ZZ/merge-lumped700":    "0c6ec5fd65f1cb742e515e721f571d86b7c98e12bfacc5de84e0e1145052ce0c",
	"Google/d5/ZZ/merge-spread700":    "7339f530335661e0eba0546adb35fa60246aeebb08829bf64f61cc7b57a5bee4",
	"Google/d5/ZZ/merge-intra700":     "bd1083f0987939b85af6f6a7ca1cf159ffe5244d15e0da4c02095db00863bb29",
	"Google/d5/ZZ/merge-unequal":      "210f6fcd737fe6d8fbfe042beb22906417b6918544549c246fd8f95ff784301b",
	"Google/d5/ZZ/merge-pprime-late":  "1089d21681136f5bbe6840c7ecb4c6399c38450ebf3781d30fe3369dcc4b85f8",
	"Google/d5/ZZ/chain2":             "871c071c93e57195bfd76032cad50729dc961e0f1f688001a1511b9c41be568e",
	"Google/d5/ZZ/chain3-idles":       "b6437fd6a0eeeceecaa27ab82a0b6fffdf90b93870be63a55cfb48238552b2f6",
	"Google/d5/ZZ/chain4-full":        "3d612f0772094cef07a7c6b998b6420bfa1a2be7e5de3db9320402df0b305df6",
}

// TestCircuitTextGolden pins the Stim text of every golden circuit: the
// builders must reproduce the recorded bytes exactly.
func TestCircuitTextGolden(t *testing.T) {
	circuits := goldenCircuits()
	if len(circuits) != len(goldenCircuitDigests) {
		t.Fatalf("%d golden circuits, %d recorded digests", len(circuits), len(goldenCircuitDigests))
	}
	for _, gc := range circuits {
		c, err := gc.build()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		sum := sha256.Sum256([]byte(c.Text()))
		if got, want := hex.EncodeToString(sum[:]), goldenCircuitDigests[gc.name]; got != want {
			t.Errorf("%s: circuit text digest %s, want %s", gc.name, got, want)
		}
	}
}
