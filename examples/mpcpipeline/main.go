// The full Theorem-1 pipeline on the MPC simulator: Fast Johnson–
// Lindenstrauss dimension reduction (Theorem 3) followed by hybrid-
// partitioning tree embedding (Algorithm 2), with every round and word
// of the model metered.
//
// Scenario: document vectors in a 1000-dimensional feature space, too
// wide to ball-partition directly — exactly the regime the paper's
// pipeline targets.
//
//	go run ./examples/mpcpipeline
package main

import (
	"fmt"
	"log"

	"mpctree"
	"mpctree/internal/workload"
)

func main() {
	// 96 documents as sparse high-dimensional feature vectors.
	docs := workload.SparseBinary(5, 96, 1000, 4, 512)
	fmt.Printf("input: %d vectors in %d dimensions\n", len(docs), len(docs[0]))

	tree, info, err := mpctree.EmbedMPC(docs, mpctree.MPCOptions{
		Machines: 16,
		CapWords: 1 << 22,
		Seed:     11,
		Xi:       0.3,
		CK:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n--- pipeline accounting (the quantities Theorems 1 & 3 bound) ---")
	if info.UsedFJLT {
		fmt.Printf("FJLT: %d → %d dimensions (k = Θ(ξ⁻²·log n)), sparsity q=%.3f\n",
			len(docs[0]), info.FJLTParams.K, info.FJLTParams.Q)
	}
	fmt.Printf("total rounds: %d (constant: independent of n)\n", info.Metrics.Rounds)
	fmt.Printf("peak local memory: %d words (cap %d)\n", info.Metrics.MaxLocalWords, info.CapWords)
	fmt.Printf("total space: %d words, communication: %d words\n", info.Metrics.TotalSpace, info.Metrics.CommWords)
	if ei := info.EmbedInfo; ei != nil {
		fmt.Printf("hybrid partitioning: r=%d buckets, %d levels, U=%d grids/(level,bucket), grid state %d words\n",
			ei.R, ei.Levels, ei.U, ei.GridWords)
	}

	fmt.Println("\n--- embedding quality on the ORIGINAL 1000-dim distances ---")
	var worst, sum float64
	pairs := 0
	viol := 0
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			e := mpctree.Dist(docs[i], docs[j])
			if e == 0 {
				continue
			}
			ratio := tree.Dist(i, j) / e
			if ratio < 1 {
				viol++
			}
			if ratio > worst {
				worst = ratio
			}
			sum += ratio
			pairs++
		}
	}
	fmt.Printf("pairs: %d, domination violations: %d (0 expected — tree is rescaled by 1/(1−ξ))\n", pairs, viol)
	fmt.Printf("distortion: mean %.2f, worst %.2f\n", sum/float64(pairs), worst)
}
