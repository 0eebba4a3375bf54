// Workload analysis walkthrough (paper §3.3): estimate fault-tolerant
// resources for the paper's benchmark suite with the QRE-style
// estimator, and the synchronizations per logical cycle each workload
// needs.
package main

import (
	"fmt"

	"latticesim"
	"latticesim/internal/resource"
)

func main() {
	hw := latticesim.IBM()
	fmt.Println("QRE-style estimates for the paper's benchmark suite (p=1e-3, budget 1/3):")
	for _, wl := range resource.Workloads() {
		est := resource.EstimateFor(wl, hw, 1e-3, 1.0/3)
		fmt.Printf("  %-15s sync/cycle=%5.2f  %s\n", wl.Name, wl.SyncsPerCycle(), est)
	}
}
