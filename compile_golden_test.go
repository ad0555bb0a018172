package plim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"plim/internal/alloc"
	"plim/internal/compile"
	"plim/internal/core"
	"plim/internal/mig"
	"plim/internal/rewrite"
	"plim/internal/suite"
	"plim/internal/verify"
)

// compileDigest hashes everything the acceptance criteria pin: the binary
// program, the per-device write counts and the #I/#R metrics.
func compileDigest(t *testing.T, res *compile.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Program.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	var word [8]byte
	for _, w := range res.WriteCounts {
		binary.LittleEndian.PutUint64(word[:], w)
		h.Write(word[:])
	}
	binary.LittleEndian.PutUint64(word[:], uint64(res.NumInstructions))
	h.Write(word[:])
	binary.LittleEndian.PutUint64(word[:], uint64(res.NumRRAMs))
	h.Write(word[:])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCompileGoldenOutputs pins the compiler's exact output — program bytes,
// write counts, #I and #R. The first rows use the shrink-2 multiplier
// rewritten by Algorithm 2 at paper effort, for all three selection policies
// and both allocators; their hashes were recorded before the compile-scratch
// reuse landed. The suite rows cover every benchmark at shrink 4 under the
// five Table I configurations at paper effort plus FullCap(8), a cap tight
// enough that the min-write allocator often finds no free device with
// headroom; their hashes were recorded before the compile kernel's cost
// table and packed candidate keys landed. Any deviation means a refactor
// changed observable behaviour, which it must never do.
func TestCompileGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep in short mode")
	}
	m, err := suite.BuildScaled("multiplier", 2)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, _ := rewrite.Run(m, rewrite.Algorithm2, core.DefaultEffort)
	cases := []struct {
		name string
		opts compile.Options
		want string
	}{
		{"node-order/lifo", compile.Options{Selection: compile.NodeOrder, Alloc: alloc.LIFO}, "c27638fe72a2b44c"},
		{"standard/lifo", compile.Options{Selection: compile.Standard, Alloc: alloc.LIFO}, "4f2de26384f4d89f"},
		{"standard/minwrite", compile.Options{Selection: compile.Standard, Alloc: alloc.MinWrite}, "375ee31bce332d83"},
		{"endurance/minwrite", compile.Options{Selection: compile.Endurance, Alloc: alloc.MinWrite}, "d678adec7364eabd"},
		{"endurance/minwrite/cap50", compile.Options{Selection: compile.Endurance, Alloc: alloc.MinWrite, MaxWrites: 50}, "2281cba13ebdb42a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, rewritten, tc.opts, tc.want)
		})
	}

	cfgs := append(core.TableIConfigs(), core.FullCap(8))
	names := Benchmarks()
	if len(suiteGolden) != len(names) {
		t.Fatalf("%d golden suite rows for %d benchmarks", len(suiteGolden), len(names))
	}
	for i, name := range names {
		row := suiteGolden[i]
		if row.bench != name {
			t.Fatalf("golden suite row %d is %q, want %q", i, row.bench, name)
		}
		m, err := suite.BuildScaled(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		graphs := map[core.RewriteKind]*mig.MIG{}
		for j, cfg := range cfgs {
			g, ok := graphs[cfg.Rewrite]
			if !ok {
				if g, _, err = core.Rewrite(context.Background(), m, cfg.Rewrite, core.DefaultEffort, cfg.Name); err != nil {
					t.Fatal(err)
				}
				graphs[cfg.Rewrite] = g
			}
			opts := compile.Options{Selection: cfg.Selection, Alloc: cfg.Alloc, MaxWrites: cfg.MaxWrites}
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				checkGolden(t, g, opts, row.want[j])
			})
		}
	}
}

// suiteGolden holds, per benchmark in Benchmarks() order, the digest of its
// shrink-4 graph compiled under each of the five Table I configurations and
// FullCap(8), in that order.
var suiteGolden = []struct {
	bench string
	want  [6]string
}{
	{"adder", [6]string{"f6d350a49c73c148", "c8d7fb3be55a6f37", "2eb6d7d7b89ac02d", "5dd4f71e354fb5cd", "e73e3e50d7269d62", "e0f97fb00dc0356d"}},
	{"bar", [6]string{"8141cf5749393987", "009344f9f81c2248", "6a3589b19463bb25", "aa078b92c93f9119", "e4a146b6d9dc8e21", "93a7a53008c061f7"}},
	{"div", [6]string{"a67554d2a677c101", "e60e94109494b296", "b5fa500227d591c1", "68dfea2a28027a2d", "c141d538bd33d58b", "4f68e0deaaa35ca3"}},
	{"log2", [6]string{"fc79b63b1eb5cd54", "77c4528cc17abd67", "f5f5baf7ca648d1c", "a719b73d056e104a", "6d2af23f4a32f60f", "2a77ed977fcb3f93"}},
	{"max", [6]string{"7aa271674e5e4a53", "0283baa426e6a11c", "5f978c4dc897abbf", "0b1cb33af7b6c26e", "e887cfb196ae29c0", "20239b0941b7d027"}},
	{"multiplier", [6]string{"07c1fe7f77dae124", "c7d5033fab43688c", "98e9bc4bdcb1cab5", "d4f58f89e1b40958", "3b80eaae3f09eb51", "546009d3b31641fd"}},
	{"sin", [6]string{"a0724e74bb1d99e9", "ce4ae17fb4828f54", "9f0527ea821f4270", "81d8dd6a7411781b", "308fa2e8341c0eb1", "fdf53e65e5d6b2f0"}},
	{"sqrt", [6]string{"36ae7904717687b3", "3a9cd26d1f2e7638", "4450471645cc289b", "713ddc53b85cd631", "45a082331e2c70c6", "33b30b8d66a58080"}},
	{"square", [6]string{"164662a76a3d4a65", "ed7eafa99ff7ed34", "4a7285f13230bd65", "51f79a3f2d9a1d26", "21771cbfe4f26a3f", "a88971baac01cdaa"}},
	{"cavlc", [6]string{"4e4a162e377415c6", "b8279d3224e5419a", "b5a9fe8043730571", "1039fc2417d717e7", "6862b56f466275fc", "6862b56f466275fc"}},
	{"ctrl", [6]string{"622fcd17cd20443d", "0d330250c68c2570", "b9779429aa30761e", "a9ca9dcd957e42be", "ee71cb9c3d8e8d53", "5006fddc72515241"}},
	{"dec", [6]string{"f702baadc5b40f9b", "a50ce30600c146db", "a50ce30600c146db", "a50ce30600c146db", "a50ce30600c146db", "a50ce30600c146db"}},
	{"i2c", [6]string{"99dfd3752997d491", "4d7c43a730748fe0", "3f924bf1ad4f49f6", "ef43016804d8b431", "0f760e33caff9aae", "0f760e33caff9aae"}},
	{"int2float", [6]string{"b92edfdcb640c50e", "85bafd754a4a6db0", "5bba0bc14a8b1479", "1fbf4d3a60e17d7d", "c673611622c2a329", "f07bc9a7cfd5b47a"}},
	{"mem_ctrl", [6]string{"6470a26e3f3ab9bc", "3c40fc99103bfab6", "37bc472468aac771", "40d127b0a49ce606", "0d19f0e25e1db821", "6344aebfeab555d5"}},
	{"priority", [6]string{"fb799436fbfc2e75", "71ad79fcf1b2077e", "53a5a55283f961fc", "1189250c95931a58", "9efd66f916681d12", "9efd66f916681d12"}},
	{"router", [6]string{"afc84d6180c51698", "99bcc4d6ab85d456", "24da3ebf2a73a8e4", "eaed93c04f3bc997", "56c4d96131a3b878", "56c4d96131a3b878"}},
	{"voter", [6]string{"518042386d810ab9", "b65fa3e8d37bdcc5", "45e5b1a28f7f62ac", "352e0af77466b12f", "6b81f80a29bfb691", "46f56d4723852074"}},
}

// checkGolden compiles g under opts and requires the pinned digest, a
// verify-clean program with exact allocator parity, and a byte-identical
// repeat compile.
func checkGolden(t *testing.T, g *mig.MIG, opts compile.Options, want string) {
	t.Helper()
	res, err := compile.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := compileDigest(t, res)
	if got != want {
		t.Fatalf("compile output changed: digest %s, want %s", got, want)
	}
	// Every golden program must also pass static verification with exact
	// allocator parity and no dead writes — the pinned outputs are proof the
	// verifier accepts real compiler output, and the verifier is proof the
	// pinned outputs waste no endurance.
	vr := verify.Program(res.Program, verify.Options{MaxWrites: opts.MaxWrites})
	verify.CheckWriteParity(vr, res.WriteCounts, "allocator")
	if err := vr.Err(); err != nil {
		t.Fatalf("golden program fails verification: %v", err)
	}
	if len(vr.DeadWrites) != 0 {
		t.Fatalf("golden program has %d dead writes: %v", len(vr.DeadWrites), vr.DeadWrites)
	}
	// A second compile of the same graph (which reuses the pooled scratch
	// the first call released) must be byte-identical too.
	res2, err := compile.Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d2 := compileDigest(t, res2); d2 != got {
		t.Fatalf("repeat compile diverged: %s vs %s", d2, got)
	}
}
