package e2e

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mpctree/internal/experiments"
	"mpctree/internal/hst"
	"mpctree/internal/serve"
)

// TestMPCBench checks the experiment harness's own wiring; the
// experiments themselves run in internal/experiments' tests.
func TestMPCBench(t *testing.T) {
	dir := scratch(t)
	list := run(t, dir, "mpcbench", "-list")
	if got, want := strings.Fields(list.stdout.String()), experiments.IDs(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("mpcbench -list printed %q, want the %d ids %q", got, len(want), want)
	}

	one := run(t, dir, "mpcbench", "-exp", "E02-Thm2", "-quick")
	out := one.stdout.String()
	if !strings.Contains(out, "[PASS]") || strings.Contains(out, "[FAIL]") {
		t.Fatalf("mpcbench -exp E02-Thm2 -quick printed no [PASS] line, or a [FAIL]:\n%s", out)
	}

	bad := start(t, dir, "mpcbench", "-exp", "E99-Nope", "-quick")
	if code := bad.wait(t); code != 1 {
		t.Fatalf("mpcbench -exp E99-Nope exited %d, want 1", code)
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(bad.stderr.String(), id) {
			t.Fatalf("mpcbench's unknown-id error does not name %s:\n%s", id, bad.stderr.String())
		}
	}
}

// TestTreeQuery runs every treequery operation on an MPC tree written
// by treembed -save (full depth, so it has unary chains to compress) and
// requires each to print what the hst kernels return on the same tree.
func TestTreeQuery(t *testing.T) {
	dir := scratch(t)
	run(t, dir, "treembed", "-gen", "clusters", "-n", "200", "-d", "8", "-mpc", "-seed", "5", "-save", "t.tree")
	tree := readTree(t, filepath.Join(dir, "t.tree"))
	mu, err := serve.ParseMeasure("0:1,5:0.5", tree.NumPoints())
	if err != nil {
		t.Fatal(err)
	}
	nu, err := serve.ParseMeasure("9:1.5", tree.NumPoints())
	if err != nil {
		t.Fatal(err)
	}
	labels := tree.CutAtScale(100)
	sizes := []int{}
	for _, l := range labels {
		for len(sizes) <= l {
			sizes = append(sizes, 0)
		}
		sizes[l]++
	}
	medoid, total := tree.MedoidLeaf()
	knn := ""
	for _, nb := range tree.KNN(4, 3) {
		knn += fmt.Sprintf("knn(4): point %d at dist_T %g\n", nb.Point, nb.Dist)
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-stats"}, fmt.Sprintf("points: %d, nodes: %d, height: %d, max level: %d\n",
			tree.NumPoints(), tree.NumNodes(), tree.Height(), tree.MaxLevel())},
		{[]string{"-dist", "3,17"}, fmt.Sprintf("dist_T(3, 17) = %g\n", tree.Dist(3, 17))},
		{[]string{"-knn", "4", "-k", "3"}, knn},
		{[]string{"-mst"}, fmt.Sprintf("tree-metric MST cost: %g (%d edges)\n", tree.MSTCost(), tree.NumPoints()-1)},
		{[]string{"-medoid"}, fmt.Sprintf("tree 1-median: point %d (total distance %g)\n", medoid, total)},
		{[]string{"-cut", "100"}, fmt.Sprintf("cut at scale 100: %d clusters\ncluster sizes: %v\n", len(sizes), sizes)},
		{[]string{"0:1,5:0.5", "9:1.5"}, fmt.Sprintf("tree EMD = %g\n", tree.EMD(mu, nu))},
	} {
		q := run(t, dir, "treequery", append([]string{"-tree", "t.tree"}, c.args...)...)
		if got := q.stdout.String(); got != c.want {
			t.Errorf("treequery %s printed\n%s, want\n%s", strings.Join(c.args, " "), got, c.want)
		}
	}
	if code := start(t, dir, "treequery", "-tree", "t.tree").wait(t); code != 2 {
		t.Errorf("treequery with no operation exited %d, want 2", code)
	}

	run(t, dir, "treequery", "-tree", "t.tree", "-compress", "-out", "c.tree")
	small := readTree(t, filepath.Join(dir, "c.tree"))
	if small.NumNodes() >= tree.NumNodes() {
		t.Errorf("-compress kept %d of %d nodes", small.NumNodes(), tree.NumNodes())
	}
	// A merged chain's weights are summed before the path sum, so the
	// metric is equal up to rounding, as in hst's own Compress tests.
	for i := 0; i < tree.NumPoints(); i++ {
		for j := i + 1; j < tree.NumPoints(); j++ {
			if got, want := small.Dist(i, j), tree.Dist(i, j); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("compressed Dist(%d, %d) = %v, original %v", i, j, got, want)
			}
		}
	}
}

func readTree(t *testing.T, path string) *hst.Tree {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tree, err := hst.ReadTree(f)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestFJLTDemo requires the FJLT's measured max pairwise distortion,
// sequential and on the MPC simulator, to stay below ξ.
func TestFJLTDemo(t *testing.T) {
	const xi = 0.3
	out := run(t, scratch(t), "fjltdemo", "-xi", fmt.Sprint(xi)).stdout.String()
	for _, prefix := range []string{"sequential max pairwise distortion: ", "MPC max pairwise distortion: "} {
		m := regexp.MustCompile(regexp.QuoteMeta(prefix) + `(\S+)`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("fjltdemo printed no %q line:\n%s", prefix, out)
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || !(v < xi) {
			t.Fatalf("%s%s, want below ξ = %v:\n%s", prefix, m[1], xi, out)
		}
	}
}

// TestExamples runs every program under examples/; each must exit 0.
func TestExamples(t *testing.T) {
	dir := scratch(t)
	examples, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for _, path := range examples {
		name := filepath.Base(filepath.Dir(path))
		t.Run(name, func(t *testing.T) { run(t, dir, name) })
	}
}
