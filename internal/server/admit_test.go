package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// These tests cover what the shared admission path adds to dataset
// creations and batch appends: the breaker, the memory watermark, refusals
// that leave nothing behind, the per-class service estimate, and the one
// terminal ordering for jobs finished while still queued.

// postJSON posts body to path and returns the response and its body.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, string(data)
}

func listDatasets(t *testing.T, ts *httptest.Server) []DatasetView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatalf("list datasets: %v", err)
	}
	defer resp.Body.Close()
	var views []DatasetView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatalf("decode dataset list: %v", err)
	}
	return views
}

// TestAdmissionEstimateIgnoresBatches proves batch appends do not feed the
// full-profile service estimate: after several batches, the estimate for a
// full profile with the session's algorithm is still exactly the EWMA of
// the one full profile that ran (its own service time).
func TestAdmissionEstimateIgnoresBatches(t *testing.T) {
	registerOverloadStrategies()
	s, ts := newTestServer(t, Config{Workers: 1})

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "sleeptest"}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	for i := 0; i < 5; i++ {
		if code, body := postBatch(t, ts, d.ID, fmt.Sprintf("%d,%d,City%d\n", 10+i, 30000+i, i)); code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d body %s", i, code, body)
		}
		pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == i+2 })
	}

	profile := getJob(t, ts, d.JobIDs[0])
	if profile.StartedAt == nil || profile.FinishedAt == nil {
		t.Fatalf("initial profile %s has no run window: %+v", profile.ID, profile)
	}
	want := profile.FinishedAt.Sub(*profile.StartedAt).Seconds()
	got, known := s.admission.estimateService("sleeptest")
	if !known || got != want {
		t.Fatalf("full-profile estimate = %v (known %v), want the profile-only EWMA %v", got, known, want)
	}
}

// TestDatasetCreateRefusedLeavesNoDataset fills the queue and proves a
// refused creation leaves no session behind: not in the list, and not after
// a restart from the state directory either.
func TestDatasetCreateRefusedLeavesNoDataset(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	started, release := gate.channels()
	cfg := Config{Workers: 1, QueueDepth: 1, StateDir: t.TempDir()}
	s, _, ts := openTestServer(t, cfg)

	// One job parked on the worker, one waiting: the queue is full.
	if code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV)); code != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", code)
	}
	<-started
	if code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest", "dataset": "filler"}`, testCSV)); code != http.StatusAccepted {
		t.Fatalf("filler submit: status %d", code)
	}

	resp, body := postJSON(t, ts, "/v1/datasets", fmt.Sprintf(`{"csv": %q}`, testCSV))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create with a full queue: status %d (%s), want 429", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if views := listDatasets(t, ts); len(views) != 0 {
		t.Fatalf("refused creation left datasets behind: %+v", views)
	}

	close(release)
	stopCleanly(t, s, ts)
	_, stats, ts2 := openTestServer(t, cfg)
	if views := listDatasets(t, ts2); len(views) != 0 {
		t.Fatalf("restart restored datasets from a refused creation: %+v", views)
	}
	if stats.RecoveredSessions+stats.FailedSessions != 0 {
		t.Fatalf("recovery stats = %+v, want no sessions", stats)
	}
}

// TestMemWatermarkHardRefusesDatasets proves the hard watermark guards both
// dataset entry points: a large creation and a large batch get 503 with
// Retry-After and count as mem_pressure rejections; the refused batch leaves
// its session ready.
func TestMemWatermarkHardRefusesDatasets(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, LargeJobBytes: 64})

	// Created before the pressure, so a session exists to append to.
	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	armFaults(t, "mem.watermark:error")

	// testCSV is past the 64-byte large threshold.
	resp, body := postJSON(t, ts, "/v1/datasets", fmt.Sprintf(`{"csv": %q}`, testCSV))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("large create under the hard watermark: status %d (%s), want 503", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if !strings.Contains(body, "memory pressure") {
		t.Fatalf("503 body %q does not explain the memory pressure", body)
	}
	if views := listDatasets(t, ts); len(views) != 1 {
		t.Fatalf("datasets after the refused create = %d, want 1", len(views))
	}

	batch := strings.Repeat("9,99999,Jena\n", 8) // 104 bytes
	resp, body = postJSON(t, ts, "/v1/datasets/"+d.ID+"/batches", mustJSON(t, batchRequest{CSV: batch}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("large batch under the hard watermark: status %d (%s), want 503", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if v := getDataset(t, ts, d.ID); v.State != DatasetReady || v.Version != 1 {
		t.Fatalf("session after the refused batch = %s v%d, want ready v1", v.State, v.Version)
	}
	if got := metricValue(t, ts, `profiled_admission_rejections_total{reason="mem_pressure"}`); got != 2 {
		t.Fatalf("mem_pressure rejections = %d, want 2", got)
	}

	// A small batch still runs.
	if code, body := postBatch(t, ts, d.ID, "5,99999,Jena\n"); code != http.StatusAccepted {
		t.Fatalf("small batch under the hard watermark: status %d body %s", code, body)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == 2 })
}

// TestMemWatermarkSoftDegradesCreateNotBatch proves the soft watermark
// degrades a dataset's initial profile like any full profile, while a batch
// job is never flagged degraded: AppendBatch runs with the session's options.
func TestMemWatermarkSoftDegradesCreateNotBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	armFaults(t, "mem.watermark:transient")

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	if v := getJob(t, ts, d.JobIDs[0]); !v.Degraded {
		t.Fatal("initial profile admitted above the soft watermark is not flagged degraded")
	}

	code, body := postBatch(t, ts, d.ID, "5,99999,Jena\n")
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	v := pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == 2 })
	batchJob := getJob(t, ts, v.JobIDs[len(v.JobIDs)-1])
	if batchJob.State != StateDone || batchJob.Degraded {
		t.Fatalf("batch job = %s degraded=%v, want done and not degraded", batchJob.State, batchJob.Degraded)
	}
}

// TestCircuitBreakerGuardsDatasets proves dataset creation shares the
// (dataset bytes, algorithm) breaker with plain jobs in both directions:
// plain failures on some bytes make their creation 422, and failing initial
// profiles trip the breaker for plain jobs and creations alike.
func TestCircuitBreakerGuardsDatasets(t *testing.T) {
	registerOverloadStrategies()
	failMode.Store(true)
	t.Cleanup(func() { failMode.Store(false) })
	_, ts := newTestServer(t, Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute})

	for i := 0; i < 2; i++ {
		resp, v, _ := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, testCSV), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("failing submit %d: status %d", i, resp.StatusCode)
		}
		pollUntil(t, ts, v.ID, func(v JobView) bool { return v.State == StateFailed })
	}
	resp, body := postJSON(t, ts, "/v1/datasets", fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, testCSV))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("create on a tripped key: status %d (%s), want 422", resp.StatusCode, body)
	}
	retryAfterHeader(t, resp)
	if !strings.Contains(body, "induced failure") {
		t.Fatalf("422 body %q does not carry the error that tripped the breaker", body)
	}

	// Other bytes: two failing initial profiles trip their own breaker.
	other := testCSV + "5,10115,Berlin\n"
	for i := 0; i < 2; i++ {
		code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, other))
		if code != http.StatusAccepted {
			t.Fatalf("failing create %d: status %d", i, code)
		}
		pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetFailed })
		pollUntil(t, ts, d.JobIDs[0], func(v JobView) bool { return v.State == StateFailed })
	}
	if resp, body := postJSON(t, ts, "/v1/datasets", fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, other)); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("create after failing initial profiles: status %d (%s), want 422", resp.StatusCode, body)
	}
	if resp, _, body := submitWith(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "failtest"}`, other), nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("plain job after failing initial profiles: status %d (%s), want 422", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `profiled_admission_rejections_total{reason="breaker_open"}`); got != 3 {
		t.Fatalf("breaker_open rejections = %d, want 3", got)
	}
}

// TestDatasetBatchCanceledWhileQueued cancels a queued batch and watches the
// job's event stream in process: by the time the canceled state is
// published, the session must already be failed, never still appending.
// The state dir puts the end record's fsync into the transition, where it
// would widen any window between the two.
func TestDatasetBatchCanceledWhileQueued(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	started, release := gate.channels()
	s, _, ts := openTestServer(t, Config{Workers: 1, StateDir: t.TempDir()})
	defer close(release)

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	if code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV)); code != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", code)
	}
	<-started
	code, body := postBatch(t, ts, d.ID, "5,99999,Jena\n")
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	var dv DatasetView
	if err := json.Unmarshal([]byte(body), &dv); err != nil {
		t.Fatalf("batch response %q: %v", body, err)
	}
	j, ok := s.lookup(dv.JobIDs[len(dv.JobIDs)-1])
	if !ok {
		t.Fatal("batch job not registered")
	}
	ds, _ := s.lookupDataset(d.ID)

	seen := make(chan string, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for from := 0; ; {
			batch, done := j.events.next(ctx, from)
			for _, e := range batch {
				if e.Type == EventState && e.State == StateCanceled {
					ds.mu.Lock()
					state := ds.state
					ds.mu.Unlock()
					seen <- state
					return
				}
			}
			if done {
				seen <- "no canceled event"
				return
			}
			from += len(batch)
		}
	}()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued batch: status %d, want 200", resp.StatusCode)
	}
	if state := <-seen; state != DatasetFailed {
		t.Fatalf("session state when the batch first read canceled = %q, want %q", state, DatasetFailed)
	}
}

// TestCancelRacingClaim races DELETE on queued jobs against the workers
// claiming them: each job is claimed once, so it ends in one terminal state
// with one terminal event, and a job canceled while queued never runs.
func TestCancelRacingClaim(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	started, release := gate.channels()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 16})

	for i := 0; i < 2; i++ {
		if code, _ := submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest", "max_rows": %d}`, testCSV, i+1)); code != http.StatusAccepted {
			t.Fatalf("blocker %d: status %d", i, code)
		}
		<-started
	}
	var ids []string
	for i := 0; i < 8; i++ {
		code, v := submit(t, ts, fmt.Sprintf(`{"csv": %q, "max_rows": %d}`, testCSV, i+1))
		if code != http.StatusAccepted {
			t.Fatalf("queued submit %d: status %d", i, code)
		}
		ids = append(ids, v.ID)
	}

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}(id)
	}
	close(release)
	wg.Wait()

	for _, id := range ids {
		v := pollUntil(t, ts, id, func(v JobView) bool { return terminal(v.State) })
		if v.State != StateDone && v.State != StateCanceled {
			t.Fatalf("job %s = %s (%s), want done or canceled", id, v.State, v.Error)
		}
		terminalEvents, ran := 0, false
		for _, e := range jobEvents(t, ts, id) {
			if e.Type == EventState && terminal(e.State) {
				terminalEvents++
			}
			ran = ran || e.State == StateRunning
		}
		if terminalEvents != 1 {
			t.Fatalf("job %s: %d terminal state events, want 1", id, terminalEvents)
		}
		if v.State == StateCanceled && v.StartedAt == nil && ran {
			t.Fatalf("job %s canceled while queued but has a running event", id)
		}
	}
}

// TestJobTimeoutResolution pins the one deadline resolution shared by the
// HTTP entry points (which refuse an explicit over-maximum request) and
// replay (which clamps it).
func TestJobTimeoutResolution(t *testing.T) {
	cases := []struct {
		name      string
		def, max  time.Duration
		requested float64
		want      time.Duration
		ok        bool
	}{
		{"default", time.Minute, 0, 0, time.Minute, true},
		{"requested", time.Minute, 0, 2, 2 * time.Second, true},
		{"requested within max", time.Minute, 10 * time.Second, 2, 2 * time.Second, true},
		{"requested over max", time.Minute, 10 * time.Second, 20, 10 * time.Second, false},
		{"default over max clamped", time.Minute, 10 * time.Second, 0, 10 * time.Second, true},
		{"no default clamped to max", 0, 10 * time.Second, 0, 10 * time.Second, true},
		{"no default no max", 0, 0, 0, 0, true},
	}
	for _, c := range cases {
		cfg := Config{DefaultTimeout: c.def, MaxTimeout: c.max}
		if got, ok := cfg.jobTimeout(c.requested); got != c.want || ok != c.ok {
			t.Errorf("%s: jobTimeout(%g) = %v, %v; want %v, %v", c.name, c.requested, got, ok, c.want, c.ok)
		}
	}
}
