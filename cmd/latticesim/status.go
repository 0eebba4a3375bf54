package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"latticesim/internal/service"
)

// runStatus implements the `latticesim status` subcommand: a one-shot
// (or -watch polling) fleet dashboard assembled from GET /v1/stats,
// GET /v1/workers and the live gauges of GET /metrics.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: latticesim status [-server URL] [-watch D]

Prints a snapshot of a running `+"`latticesim serve`"+` fleet: queue and
job-state counts, attempt/requeue/integrity counters, worker nodes with
their outcome tallies, and the live decode throughput of running jobs
(read from the coordinator's GET /metrics). A -server without a scheme
(host:port) means http://.

Flags:`)
		fs.PrintDefaults()
	}
	server := fs.String("server", "http://127.0.0.1:8642", "coordinator base URL")
	watch := fs.Duration("watch", 0, "re-poll and re-print every interval (0 = print once and exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q: name the coordinator with -server", fs.Arg(0))
	}
	addr := *server
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}

	client := service.NewClient(addr)
	ctx := context.Background()
	for {
		if err := printStatus(ctx, os.Stdout, client, addr); err != nil {
			return err
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
		fmt.Println()
	}
}

// printStatus renders one status snapshot to w.
func printStatus(ctx context.Context, w io.Writer, client *service.Client, addr string) error {
	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("fetching %s/v1/stats: %w", addr, err)
	}
	fmt.Fprintf(w, "%s  (%s)\n", addr, time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "  jobs      %d (+%d batch children)  queued %d  running %d  done %d  failed %d  canceled %d  integrity %d\n",
		st.Jobs, st.BatchChildren, st.Queued, st.Running, st.Done, st.Failed, st.Canceled, st.IntegrityErrors)
	fmt.Fprintf(w, "  work      attempts %d  requeues %d  cancellations %d  integrity checks %d / failures %d\n",
		st.Attempts, st.Requeues, st.Cancellations, st.IntegrityChecks, st.IntegrityFailures)
	fmt.Fprintf(w, "  fleet     workers %d  active leases %d  campaigns %d\n",
		st.Workers, st.ActiveLeases, st.Campaigns)
	fmt.Fprintf(w, "  store     hits %d  puts %d  corruptions %d   build cache %d hits / %d misses / %d evictions, %.1f MiB\n",
		st.StoreHits, st.StorePuts, st.StoreCorruptions, st.BuildHits, st.BuildMisses,
		st.BuildEvictions, float64(st.BuildBytes)/(1<<20))

	if workers, err := client.Workers(ctx); err == nil && len(workers) > 0 {
		fmt.Fprintln(w, "  nodes:")
		now := time.Now().UnixMilli()
		for _, wi := range workers {
			age := time.Duration(now-wi.LastSeenMs) * time.Millisecond
			fmt.Fprintf(w, "    %-6s %-16s leased %-4d completed %-4d failed %-4d last seen %s ago\n",
				wi.ID, wi.Name, wi.Leased, wi.Completed, wi.Failed, age.Round(100*time.Millisecond))
		}
	}

	// Live throughput comes from the metrics endpoint: the per-job
	// shots/s gauges only exist while their jobs run.
	if rates := scrapeShotRates(ctx, addr); len(rates) > 0 {
		jobs := make([]string, 0, len(rates))
		for id := range rates {
			jobs = append(jobs, id)
		}
		sort.Strings(jobs)
		fmt.Fprint(w, "  decoding ")
		for _, id := range jobs {
			fmt.Fprintf(w, " %s %.3g shots/s", id, rates[id])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// scrapeShotRates reads the coordinator's Prometheus exposition and
// extracts the per-job latticesim_job_shots_per_second series. Any
// failure returns nil: the dashboard degrades, it never errors out
// over an optional detail.
func scrapeShotRates(ctx context.Context, addr string) map[string]float64 {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	rates := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `latticesim_job_shots_per_second{job="`)
		if !ok {
			continue
		}
		id, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil && v > 0 {
			rates[id] = v
		}
	}
	return rates
}
