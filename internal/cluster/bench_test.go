package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"
)

// benchTrainFlags keeps process startup cheap: the benchmark measures
// serving, not training.
var benchTrainFlags = []string{"-eras", "4", "-rows", "300", "-horizon", "2", "-k", "5"}

// freePort reserves an ephemeral port and releases it for the child process.
func freePort(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// spawn starts a binary and waits until readyURL answers 200.
func spawn(b *testing.B, bin string, readyURL string, args ...string) {
	b.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(readyURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	b.Fatalf("%s never became ready at %s", bin, readyURL)
}

var benchProfile = []byte(`{"profile": {"age": 29, "household": 1, "income": 48000, "debt": 1900, "seniority": 4, "amount": 30000}}`)

func benchCreateSession(b *testing.B, client *http.Client, base string) string {
	b.Helper()
	resp, err := client.Post(base+"/api/sessions", "application/json", bytes.NewReader(benchProfile))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
		b.Fatalf("create response %s: %v", body, err)
	}
	return out.ID
}

// serveLoad drives the mixed workload — mostly canned-question asks over a
// pre-created session pool, with one session creation per 16 ops — from
// parallel clients, and reports aggregate requests/second.
func serveLoad(b *testing.B, base string) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	var mu sync.Mutex
	var pool []string
	for i := 0; i < 8; i++ {
		pool = append(pool, benchCreateSession(b, client, base))
	}
	askBody := []byte(`{"kind": "no-modification"}`)

	var ops int64
	start := time.Now()
	// More in-flight requests than cores: aggregate throughput is what the
	// cluster is for, and queueing is what exposes single-process
	// serialization (admission, shared rings, one GC) that per-request
	// latency hides.
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		n := 0
		for pb.Next() {
			n++
			if n%16 == 0 {
				id := benchCreateSession(b, client, base)
				mu.Lock()
				pool = append(pool, id)
				mu.Unlock()
				continue
			}
			mu.Lock()
			id := pool[rng.Intn(len(pool))]
			mu.Unlock()
			resp, err := client.Post(base+"/api/sessions/"+id+"/ask", "application/json", bytes.NewReader(askBody))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Errorf("ask: %d", resp.StatusCode)
				return
			}
		}
		mu.Lock()
		ops += int64(n)
		mu.Unlock()
	})
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(ops)/el, "req/s")
	}
}

// BenchmarkClusterServe compares a single jitd process against a 3-shard
// cluster behind jitrouter on the same box, on the mixed create+ask
// workload. It needs prebuilt binaries:
//
//	go build -o bin/ ./cmd/jitd ./cmd/jitrouter
//	JITD_BIN=$PWD/bin/jitd JITROUTER_BIN=$PWD/bin/jitrouter \
//	    go test ./internal/cluster -run '^$' -bench ClusterServe -benchtime 15s
func BenchmarkClusterServe(b *testing.B) {
	jitd := os.Getenv("JITD_BIN")
	jitrouter := os.Getenv("JITROUTER_BIN")
	if jitd == "" || jitrouter == "" {
		b.Skip("set JITD_BIN and JITROUTER_BIN to absolute paths of binaries from go build -o bin/ ./cmd/jitd ./cmd/jitrouter")
	}

	b.Run("single-process", func(b *testing.B) {
		addr := freePort(b)
		args := append([]string{"-addr", addr}, benchTrainFlags...)
		spawn(b, jitd, "http://"+addr+"/api/questions", args...)
		serveLoad(b, "http://"+addr)
	})

	b.Run("cluster-3shard", func(b *testing.B) {
		names := []string{"s0", "s1", "s2"}
		m := Map{}
		addrs := make([]string, len(names))
		for i := range names {
			addrs[i] = freePort(b)
			m.Shards = append(m.Shards, Shard{Name: names[i], Addr: addrs[i]})
		}
		raw, err := json.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		cfg := fmt.Sprintf("%s/cluster.json", b.TempDir())
		if err := os.WriteFile(cfg, raw, 0o644); err != nil {
			b.Fatal(err)
		}
		for i, name := range names {
			args := append([]string{
				"-addr", addrs[i], "-cluster-config", cfg, "-shard-name", name,
			}, benchTrainFlags...)
			spawn(b, jitd, "http://"+addrs[i]+"/api/questions", args...)
		}
		front := freePort(b)
		spawn(b, jitrouter, "http://"+front+"/admin/map", "-addr", front, "-cluster-config", cfg)
		serveLoad(b, "http://"+front)
	})
}
