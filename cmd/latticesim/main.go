// Command latticesim regenerates the tables and figures of
// "Synchronization for Fault-Tolerant Quantum Computers" (ISCA 2025),
// runs declarative parameter-sweep campaigns, and serves simulations
// over HTTP.
//
// Usage:
//
//	latticesim [-shots N] [-maxd D] [-seed S] [-workers W] <experiment>...
//	latticesim -list
//	latticesim all
//	latticesim sweep [sweep flags] -out DIR
//	latticesim trace [trace flags]
//	latticesim serve [serve flags]
//	latticesim worker [worker flags]
//	latticesim submit sweep|trace|campaign [submit flags]
//	latticesim status [-server URL] [-watch D]
//
// Experiment IDs follow the paper (fig14, table2, ...). Shots and maximum
// code distance default to laptop-scale values; the paper's settings are
// -shots 100000000 -maxd 15 (128 cores for days).
//
// The sweep subcommand expands a policies × distances × slacks × error
// rates × bases grid, caches build artifacts across points, and streams
// machine-readable results (JSONL + CSV) with a resumable manifest; see
// EXPERIMENTS.md for the workflow and the record schema.
//
// The trace subcommand simulates whole lattice-surgery programs — many
// patches with heterogeneous cycle times repeatedly merging — under each
// synchronization policy, from a trace file or a generated workload
// family (see EXPERIMENTS.md §10).
//
// The serve subcommand starts the always-on simulation service: a job
// queue with a content-addressed result store, so identical submissions
// are answered from cache bit-identically (DESIGN.md §11). The worker
// subcommand joins a serve coordinator as a pull-based execution node,
// so a whole campaign fabric — coordinator plus N leased workers — runs
// from one binary (DESIGN.md §15). The submit subcommand is their
// command-line client. Both sweep and trace accept -json to emit the
// same machine-readable schemas the service returns, making CLI and API
// outputs interchangeable.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"latticesim/internal/exp"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := runSweep(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "latticesim sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "latticesim trace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "latticesim serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := runWorker(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "latticesim worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "submit" {
		if err := runSubmit(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "latticesim submit: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "status" {
		if err := runStatus(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "latticesim status: %v\n", err)
			os.Exit(1)
		}
		return
	}

	opts := exp.OptionsFromEnv()
	shots := flag.Int("shots", opts.Shots, "shots per simulated configuration (0 = default)")
	maxD := flag.Int("maxd", opts.MaxD, "largest code distance in sweeps (0 = default)")
	seed := flag.Uint64("seed", opts.Seed, "base RNG seed (0 = default)")
	workers := flag.Int("workers", opts.Workers, "Monte Carlo worker pool size (0 = GOMAXPROCS; results are worker-count independent)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: latticesim [-flags] <experiment>...  (see -list)")
		fmt.Fprintln(os.Stderr, "       latticesim sweep -help")
		fmt.Fprintln(os.Stderr, "       latticesim trace -help")
		fmt.Fprintln(os.Stderr, "       latticesim serve -help")
		fmt.Fprintln(os.Stderr, "       latticesim worker -help")
		fmt.Fprintln(os.Stderr, "       latticesim submit -help")
		fmt.Fprintln(os.Stderr, "       latticesim status -help")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = args[:0]
		for _, e := range exp.All() {
			args = append(args, e.ID)
		}
	}
	o := exp.Options{Shots: *shots, MaxD: *maxD, Seed: *seed, Workers: *workers}
	for _, id := range args {
		e, ok := exp.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (see -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		if err := e.Run(os.Stdout, o); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
