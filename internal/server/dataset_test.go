package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// --- dataset helpers ---

func createDataset(t *testing.T, ts *httptest.Server, body string) (int, DatasetView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("create dataset: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v DatasetView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("create dataset response %q: %v", data, err)
		}
	}
	return resp.StatusCode, v
}

func getDataset(t *testing.T, ts *httptest.Server, id string) DatasetView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/datasets/" + id)
	if err != nil {
		t.Fatalf("get dataset: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get dataset %s: status %d", id, resp.StatusCode)
	}
	var v DatasetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode dataset: %v", err)
	}
	return v
}

// pollDataset polls the dataset until pred holds or the deadline passes.
func pollDataset(t *testing.T, ts *httptest.Server, id string, pred func(DatasetView) bool) DatasetView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v := getDataset(t, ts, id)
		if pred(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("dataset %s never reached the expected state", id)
	return DatasetView{}
}

func postBatch(t *testing.T, ts *httptest.Server, id, csv string) (int, string) {
	t.Helper()
	body, _ := json.Marshal(batchRequest{CSV: csv})
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/batches", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("post batch: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func getProfile(t *testing.T, ts *httptest.Server, id string) (int, DatasetProfileView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/datasets/" + id + "/profile")
	if err != nil {
		t.Fatalf("get profile: %v", err)
	}
	defer resp.Body.Close()
	var v DatasetProfileView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode profile: %v", err)
		}
	}
	return resp.StatusCode, v
}

// --- tests ---

// TestDatasetLifecycle covers the full incremental flow: create → initial
// profile → versioned batch appends, with the final profile matching a
// from-scratch job on the concatenated rows.
func TestDatasetLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	if d.State != DatasetProfiling {
		t.Fatalf("fresh dataset state = %q, want %q", d.State, DatasetProfiling)
	}
	v := pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	if v.Version != 1 {
		t.Fatalf("after initial profile Version = %d, want 1", v.Version)
	}
	if v.Rows != 4 || len(v.Columns) != 3 {
		t.Fatalf("after initial profile rows=%d columns=%v", v.Rows, v.Columns)
	}
	code, prof := getProfile(t, ts, d.ID)
	if code != http.StatusOK || prof.Version != 1 || prof.Report == nil {
		t.Fatalf("profile v1: code=%d view=%+v", code, prof)
	}
	// The seed rows keep id unique and zip → city.
	if got := prof.Report.UCCs; len(got) == 0 {
		t.Fatalf("initial profile found no UCCs: %+v", prof.Report)
	}

	// Batch 1 repeats an id, so the {id} key must fall after revalidation.
	batch := "1,14467,Potsdam\n5,99999,Jena\n"
	if code, body := postBatch(t, ts, d.ID, batch); code != http.StatusAccepted {
		t.Fatalf("post batch: status %d body %s", code, body)
	}
	v = pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == 2 })
	if v.Rows != 6 {
		t.Fatalf("after batch rows = %d, want 6", v.Rows)
	}
	code, prof = getProfile(t, ts, d.ID)
	if code != http.StatusOK || prof.Version != 2 {
		t.Fatalf("profile v2: code=%d version=%d", code, prof.Version)
	}
	for _, u := range prof.Report.UCCs {
		if len(u) == 1 && u[0] == "id" {
			t.Fatalf("{id} still reported unique after a duplicate id was appended: %v", prof.Report.UCCs)
		}
	}

	// Differential check: a from-scratch job over the concatenated rows must
	// report exactly the same dependencies as the incremental session.
	code, job := submit(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV+batch))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("scratch submit: status %d", code)
	}
	job = pollUntil(t, ts, job.ID, func(v JobView) bool { return terminal(v.State) })
	if job.State != StateDone {
		t.Fatalf("scratch job state %q: %s", job.State, job.Error)
	}
	want := job.Result
	got := prof.Report
	if !reflect.DeepEqual(got.INDs, want.INDs) {
		t.Errorf("INDs diverge:\nincremental %+v\nscratch     %+v", got.INDs, want.INDs)
	}
	if !reflect.DeepEqual(got.UCCs, want.UCCs) {
		t.Errorf("UCCs diverge:\nincremental %+v\nscratch     %+v", got.UCCs, want.UCCs)
	}
	if !reflect.DeepEqual(got.FDs, want.FDs) {
		t.Errorf("FDs diverge:\nincremental %+v\nscratch     %+v", got.FDs, want.FDs)
	}

	if n := metricValue(t, ts, "profiled_datasets_created_total"); n != 1 {
		t.Errorf("datasets_created = %d, want 1", n)
	}
	if n := metricValue(t, ts, "profiled_dataset_batches_total"); n != 1 {
		t.Errorf("dataset_batches = %d, want 1", n)
	}
}

// TestDatasetBatchConflict proves the one-job-per-dataset invariant: while a
// batch job is queued or running, further batch submissions are rejected with
// 409 instead of being queued behind state the client never saw.
func TestDatasetBatchConflict(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	started, release := gate.channels()
	_, ts := newTestServer(t, Config{Workers: 1})

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })

	// Park a plain job on the single worker so the next batch stays queued.
	code, _ = submit(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", code)
	}
	<-started

	if code, body := postBatch(t, ts, d.ID, "5,99999,Jena\n"); code != http.StatusAccepted {
		t.Fatalf("first batch: status %d body %s", code, body)
	}
	code, body := postBatch(t, ts, d.ID, "6,99999,Jena\n")
	if code != http.StatusConflict {
		t.Fatalf("concurrent batch: status %d body %s, want 409", code, body)
	}
	if !strings.Contains(body, "in flight") {
		t.Fatalf("409 body %q does not name the in-flight job", body)
	}

	close(release)
	v := pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady && v.Version == 2 })
	if v.Rows != 5 {
		t.Fatalf("after released batch rows = %d, want 5", v.Rows)
	}
}

// TestDatasetBusyDuringInitialProfile covers the profiling window: until the
// initial profile lands there is no revalidation baseline, so batches are 409
// and the profile endpoint reports the same conflict.
func TestDatasetBusyDuringInitialProfile(t *testing.T) {
	registerBlockStrategy()
	gate.reset()
	started, release := gate.channels()
	_, ts := newTestServer(t, Config{Workers: 1})

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q, "algorithm": "blocktest"}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	<-started

	if code, _ := postBatch(t, ts, d.ID, "5,99999,Jena\n"); code != http.StatusConflict {
		t.Fatalf("batch during initial profile: status %d, want 409", code)
	}
	if code, _ := getProfile(t, ts, d.ID); code != http.StatusConflict {
		t.Fatalf("profile during initial profile: status %d, want 409", code)
	}
	close(release)
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	if code, _ := getProfile(t, ts, d.ID); code != http.StatusOK {
		t.Fatalf("profile after release: status %d, want 200", code)
	}
}

// TestDatasetValidation covers the client-error surface of the dataset
// endpoints.
func TestDatasetValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Unknown ids are 404 on every dataset route.
	for _, probe := range []func() (int, string){
		func() (int, string) {
			resp, err := http.Get(ts.URL + "/v1/datasets/d-999")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(b)
		},
		func() (int, string) {
			code, body := postBatch(t, ts, "d-999", "1,2,3\n")
			return code, body
		},
		func() (int, string) {
			code, _ := getProfile(t, ts, "d-999")
			return code, ""
		},
	} {
		if code, _ := probe(); code != http.StatusNotFound {
			t.Fatalf("unknown dataset probe: status %d, want 404", code)
		}
	}

	// Creation rejects the same bad requests as job submission.
	if code, _ := createDataset(t, ts, `{"algorithm": "muds"}`); code != http.StatusBadRequest {
		t.Fatalf("create without csv: status %d, want 400", code)
	}
	if code, _ := createDataset(t, ts, `{not json`); code != http.StatusBadRequest {
		t.Fatalf("create with malformed body: status %d, want 400", code)
	}

	// Batch validation happens before the dataset is claimed.
	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.State == DatasetReady })
	if code, _ := postBatch(t, ts, d.ID, ""); code != http.StatusBadRequest {
		t.Fatalf("empty batch csv: status %d, want 400", code)
	}
	if code, body := postBatch(t, ts, d.ID, "1,2\n"); code != http.StatusBadRequest {
		t.Fatalf("narrow batch: status %d body %s, want 400", code, body)
	}
	// The rejections must not have poisoned the session.
	if code, body := postBatch(t, ts, d.ID, "5,99999,Jena\n"); code != http.StatusAccepted {
		t.Fatalf("valid batch after rejections: status %d body %s", code, body)
	}
	pollDataset(t, ts, d.ID, func(v DatasetView) bool { return v.Version == 2 })
}

// TestDatasetList covers GET /v1/datasets.
func TestDatasetList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if code, _ := createDataset(t, ts, fmt.Sprintf(`{"csv": %q, "dataset": "ds%d"}`, testCSV, i)); code != http.StatusAccepted {
			t.Fatalf("create dataset %d: status %d", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []DatasetView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Dataset != "ds0" || views[1].Dataset != "ds1" {
		t.Fatalf("dataset list = %+v", views)
	}
}

// TestDatasetBatchAfterDone is the client loop of an append stream: poll the
// batch job until it reports done, then post the next batch at once. A job
// reported done must already have released its session, so no round may be
// rejected with 409. The state dir puts the end record's fsync into the
// transition, where it would widen any window between the two.
func TestDatasetBatchAfterDone(t *testing.T) {
	_, _, ts := openTestServer(t, Config{StateDir: t.TempDir()})

	code, d := createDataset(t, ts, fmt.Sprintf(`{"csv": %q}`, testCSV))
	if code != http.StatusAccepted {
		t.Fatalf("create dataset: status %d", code)
	}
	job := d.JobIDs[len(d.JobIDs)-1]
	for round := 0; round < 20; round++ {
		// Poll without pausing, so the batch follows the first "done" read
		// as closely as a client can manage.
		v := getJob(t, ts, job)
		for deadline := time.Now().Add(10 * time.Second); !terminal(v.State) && time.Now().Before(deadline); {
			v = getJob(t, ts, job)
		}
		if v.State != StateDone {
			t.Fatalf("round %d: job %s is %q: %s", round, job, v.State, v.Error)
		}
		code, body := postBatch(t, ts, d.ID, fmt.Sprintf("%d,%d,City%d\n", 100+round, 20000+round, round))
		if code != http.StatusAccepted {
			t.Fatalf("round %d: batch posted right after job %s reported done: status %d body %s", round, job, code, body)
		}
		var dv DatasetView
		if err := json.Unmarshal([]byte(body), &dv); err != nil {
			t.Fatalf("round %d: batch response %q: %v", round, body, err)
		}
		job = dv.JobIDs[len(dv.JobIDs)-1]
	}
}
