package main

import (
	"bytes"
	"net"
	"regexp"
	"testing"

	"uvdiagram"
	"uvdiagram/internal/datagen"
	"uvdiagram/internal/server"
)

// TestMetricsPrintsQueryPhases: after one PNN, `uvclient metrics` shows
// the three query-phase histograms with one observation each.
func TestMetricsPrintsQueryPhases(t *testing.T) {
	cfg := datagen.Config{N: 40, Side: 2000, Diameter: 30, Seed: 77}
	db, err := uvdiagram.Build(datagen.Uniform(cfg), cfg.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, t.Logf)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis) // returns once Close stops the listener
	}()
	cli, err := server.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cli.Close()
		srv.Close()
		<-done
		srv.Wait()
	}()

	if _, err := cli.PNN(uvdiagram.Pt(1000, 1000)); err != nil {
		t.Fatal(err)
	}
	ms, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printMetrics(&out, ms)
	for _, name := range []string{"query.traverse", "query.retrieve", "query.prob"} {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\.count +1$`)
		if !line.Match(out.Bytes()) {
			t.Errorf("metrics table has no %q line with value 1:\n%s", name+".count", out.String())
		}
	}
}
