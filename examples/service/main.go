// Command service walks through the simulation service end to end, all
// in one process: start an embeddable server, submit a sweep-point job
// through the HTTP API, stream its progress, fetch the result from the
// content-addressed store, and then resubmit the identical job to show
// it answered from cache with byte-identical JSON — the same flow
// `latticesim serve` + `latticesim submit` drive across processes.
package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"latticesim"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	// An embeddable server: memory-only store, private build cache. A
	// production deployment would set DataDir so results survive
	// restarts.
	svc, err := latticesim.NewService(latticesim.ServiceOptions{Workers: 2})
	if err != nil {
		fatal(err)
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	client := latticesim.NewServiceClient("http://" + ln.Addr().String())
	ctx := context.Background()
	spec := latticesim.ServiceJob{Type: "sweep", Sweep: &latticesim.ServiceSweepJob{
		Policy: "Passive", TauNs: 500, Shots: 4096, Seed: 1,
	}}

	fmt.Println("submitting a Passive tau=500ns sweep point (4096 shots)...")
	st, result, err := client.Run(ctx, spec, func(s latticesim.ServiceJobStatus) {
		if s.Progress.Total > 0 {
			fmt.Printf("  %s: %d/%d %s\n", s.State, s.Progress.Done, s.Progress.Total, s.Progress.Unit)
		}
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %s done, result key %s...\n", st.ID, st.Key[:16])

	// The identical spec resolves to the same content address, so the
	// server answers without running a single shot.
	st2, result2, err := client.Run(ctx, spec, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("resubmitted: job %s cache_hit=%v, bytes identical=%v\n",
		st2.ID, st2.CacheHit, bytes.Equal(result, result2))

	stats, err := client.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("server stats: %d jobs (%d done), %d store hit(s), build cache %d hits / %d builds\n",
		stats.Jobs, stats.Done, stats.StoreHits, stats.BuildHits, stats.BuildMisses)
}
