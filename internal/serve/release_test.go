package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mcbatch"
	"repro/internal/report"
)

// offlinePayload is the payload an offline run of spec produces: what
// every served copy must equal byte for byte.
func offlinePayload(t *testing.T, spec mcbatch.Spec) []byte {
	t.Helper()
	key, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mcbatch.RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := report.BuildPayload(spec, key, b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// released polls until the job has dropped its payload reference.
func released(j *Job) bool {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if state, _, p := j.Snapshot(); state == JobDone && p == nil {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// submitAndWait posts body to /v1/jobs and long-polls it to Done.
func submitAndWait(t *testing.T, s *Server, baseURL, body string) *Job {
	t.Helper()
	resp, buf := postJSON(t, baseURL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, buf)
	}
	var sub submitResponse
	if err := json.Unmarshal(buf, &sub); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		_, buf = getBody(t, baseURL+"/v1/jobs/"+sub.ID+"?wait=1")
		if strings.Contains(string(buf), `"done"`) {
			break
		}
		if strings.Contains(string(buf), `"failed"`) || time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %s", sub.ID, buf)
		}
	}
	job, ok := s.jobByID(sub.ID)
	if !ok {
		t.Fatalf("job %s not in the registry", sub.ID)
	}
	return job
}

var (
	releaseBodyA = `{"algorithm":"snake-a","side":8,"trials":40,"seed":11}`
	releaseSpecA = mcbatch.Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 40, Seed: 11}
	releaseBodyB = `{"algorithm":"rm-cf","rows":6,"cols":10,"trials":25,"seed":3}`
)

// TestReleasedResultResolvesThroughStore: once an executed job's payload
// is durable the registry drops it, and a result fetch after the cache
// has evicted it is answered from the store, byte-identical to the
// original. A later cache or store hit keeps its own reference.
func TestReleasedResultResolvesThroughStore(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	s, ts := newTestServer(t, Config{CacheEntries: 1, Store: st})

	job := submitAndWait(t, s, ts.URL, releaseBodyA)
	resp, first := getBody(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, first)
	}
	if !released(job) {
		t.Fatal("executed job kept its payload after the store write")
	}
	if resp, buf := postJSON(t, ts.URL+"/v1/sort", releaseBodyB); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting sort: %d %s", resp.StatusCode, buf)
	}
	if _, ok := s.cache.get(job.Key); ok {
		t.Fatal("one-entry cache still holds the first payload")
	}

	resp, again := getBody(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after eviction: %d %s", resp.StatusCode, again)
	}
	if !bytes.Equal(again, first) {
		t.Fatalf("result after eviction differs:\n%s\nvs\n%s", again, first)
	}
	if want := offlinePayload(t, releaseSpecA); !bytes.Equal(again, want) {
		t.Fatalf("served payload differs from an offline run:\n%s\nvs\n%s", again, want)
	}

	hit := submitAndWait(t, s, ts.URL, releaseBodyA)
	if !hit.wasCached() {
		t.Fatal("resubmission was not answered from the store")
	}
	if _, _, p := hit.Snapshot(); p == nil {
		t.Fatal("a store-hit job dropped its payload")
	}
}

// TestSortAnswersAfterRelease orders the release (and a cache eviction)
// ahead of the /v1/sort handler's payload read: the handler must still
// answer with the exact payload, now from the store.
func TestSortAnswersAfterRelease(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	var s *Server
	var hookRan atomic.Bool
	s, ts := newTestServer(t, Config{CacheEntries: 1, Store: st,
		testBeforeSortRead: func(j *Job) {
			if !released(j) {
				t.Error("job kept its payload after the store write")
				return
			}
			s.cache.put(mcbatch.Key{}, []byte("{}\n")) // evict j's entry
			hookRan.Store(true)
		}})

	resp, buf := postJSON(t, ts.URL+"/v1/sort", releaseBodyA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sort: %d %s", resp.StatusCode, buf)
	}
	if !hookRan.Load() {
		t.Fatal("the release hook did not run before the read")
	}
	if want := offlinePayload(t, releaseSpecA); !bytes.Equal(buf, want) {
		t.Fatalf("sort after release differs from an offline run:\n%s\nvs\n%s", buf, want)
	}
}

// TestStorelessDaemonKeepsPayload: without a store nothing is released,
// so a result evicted from the cache is still served from the job.
func TestStorelessDaemonKeepsPayload(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	job := submitAndWait(t, s, ts.URL, releaseBodyA)
	if resp, buf := postJSON(t, ts.URL+"/v1/sort", releaseBodyB); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting sort: %d %s", resp.StatusCode, buf)
	}
	state, _, p := job.Snapshot()
	if state != JobDone || p == nil {
		t.Fatalf("store-less job lost its payload (state %v)", state)
	}
	if cap(p) != len(p) {
		t.Fatalf("job payload has cap %d for len %d", cap(p), len(p))
	}
	resp, buf := getBody(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, buf)
	}
	if want := offlinePayload(t, releaseSpecA); !bytes.Equal(buf, want) {
		t.Fatalf("served payload differs from an offline run:\n%s\nvs\n%s", buf, want)
	}
}
