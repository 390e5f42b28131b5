// Command fjltdemo runs the Fast Johnson–Lindenstrauss transform
// (Theorem 3) over a synthetic dataset, sequentially and on the MPC
// simulator, and reports the distortion histogram and space accounting.
//
//	fjltdemo -n 128 -d 2048 -xi 0.25 -machines 8
package main

import (
	"flag"
	"fmt"
	"os"

	"mpctree/internal/fjlt"
	"mpctree/internal/mpc"
	"mpctree/internal/stats"
	"mpctree/internal/vec"
	"mpctree/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 128, "points")
		d        = flag.Int("d", 2048, "input dimension")
		xi       = flag.Float64("xi", 0.3, "distortion parameter ξ ∈ (0, 0.5)")
		seed     = flag.Uint64("seed", 1, "random seed")
		machines = flag.Int("machines", 8, "simulated machines")
		sparse   = flag.Bool("sparse", false, "use adversarially sparse inputs")
	)
	flag.Parse()

	var pts []vec.Point
	if *sparse {
		pts = workload.SparseBinary(*seed, *n, *d, 2, 1024)
	} else {
		pts = workload.UniformLattice(*seed, *n, *d, 1024)
	}

	params, err := fjlt.NewParams(*n, *d, fjlt.Options{Xi: *xi, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fjltdemo:", err)
		os.Exit(1)
	}
	fmt.Printf("FJLT: n=%d d=%d → k=%d (padded d=%d, sparsity q=%.4f, nnz(P)≈%d)\n",
		*n, *d, params.K, params.DPad, params.Q, fjlt.NNZ(params, fjlt.DefaultBlockC(params.DPad)))

	// Sequential.
	seqOut := fjlt.FromParams(params).ApplyAll(pts)
	fmt.Printf("sequential max pairwise distortion: %.4f (target ξ=%.2f)\n",
		fjlt.MaxPairwiseDistortion(pts, seqOut), *xi)

	// MPC.
	c := mpc.New(mpc.Config{Machines: *machines, CapWords: 1 << 22})
	mpcOut, err := fjlt.ApplyMPC(c, pts, params, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fjltdemo:", err)
		os.Exit(1)
	}
	m := c.Metrics()
	fmt.Printf("MPC: %d rounds, peak local %d words, total space %d words, comm %d words\n",
		m.Rounds, m.MaxLocalWords, m.TotalSpace, m.CommWords)
	fmt.Printf("MPC max pairwise distortion: %.4f\n", fjlt.MaxPairwiseDistortion(pts, mpcOut))
	fmt.Printf("standard dense JL would hold n·d·k = %d words of projection work\n", *n**d*params.K)

	// Distortion histogram over pairs.
	var ratios []float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			de := vec.Dist(pts[i], pts[j])
			if de > 0 {
				ratios = append(ratios, vec.Dist(mpcOut[i], mpcOut[j])/de)
			}
		}
	}
	fmt.Printf("pairwise ratio quantiles: p05=%.4f p50=%.4f p95=%.4f (ideal 1±ξ)\n",
		stats.Quantile(ratios, 0.05), stats.Quantile(ratios, 0.5), stats.Quantile(ratios, 0.95))

	// Sequential and MPC must agree bit-for-bit up to summation order.
	var maxDev float64
	for i := range seqOut {
		for j := range seqOut[i] {
			if dev := abs(seqOut[i][j] - mpcOut[i][j]); dev > maxDev {
				maxDev = dev
			}
		}
	}
	fmt.Printf("max |sequential − MPC| coordinate deviation: %.2e\n", maxDev)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
