package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ptbsim"
)

func runOne(t *testing.T, bench string) *ptbsim.Result {
	t.Helper()
	res, err := ptbsim.RunContext(context.Background(), ptbsim.Config{
		Benchmark: bench, Cores: 2, Technique: ptbsim.None, WorkloadScale: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPutGetAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := runOne(t, "fft")
	s.Put("key-a", res)
	if got, ok := s.Get("key-a"); !ok || got != res {
		t.Fatal("Get after Put missed the in-memory front")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	// A fresh Open over the same directory — the restarted server — must
	// reload the entry with a byte-identical digest.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("key-a")
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if got.Digest() != res.Digest() {
		t.Fatalf("digest drifted across reopen:\n old %s\n new %s", res.Digest(), got.Digest())
	}
	if s2.Len() != 1 {
		t.Fatalf("Len() = %d after reopen, want 1", s2.Len())
	}
}

func TestByDigest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := runOne(t, "radix")
	s.Put("key-r", res)
	frag := DigestFragment(res)
	if len(frag) != 12 || strings.ContainsAny(frag, " /=") {
		t.Fatalf("digest fragment %q is not a short hex handle", frag)
	}
	if got, ok := s.ByDigest(frag); !ok || got != res {
		t.Fatalf("ByDigest(%q) missed", frag)
	}
}

func TestOpenRejectsTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("key-a", runOne(t, "fft"))
	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(names) != 1 {
		t.Fatalf("want 1 entry file, got %v", names)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digest-covered metric without touching the stored digest.
	tampered := strings.Replace(string(data), `"cycles":`, `"cycles":9`, 1)
	if tampered == string(data) {
		t.Fatal("tamper replacement made no change")
	}
	if err := os.WriteFile(names[0], []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("tampered entry served: Len() = %d, want 0", s2.Len())
	}
	if len(s2.Rejected()) != 1 {
		t.Fatalf("Rejected() = %v, want the tampered file", s2.Rejected())
	}

	// A hand-edited entry that also drops its digest decodes cleanly —
	// the wire form only verifies a digest it finds — so the store must
	// refuse it for the missing digest alone.
	data, err = json.Marshal(entry{Key: "key-b", Result: &ptbsim.Result{Benchmark: "fft", Cores: 2, EnergyJ: 1}})
	if err != nil {
		t.Fatal(err)
	}
	stripped := regexp.MustCompile(`,"digest":"[^"]*"`).ReplaceAllString(
		strings.Replace(string(data), `"energy_j":1,`, `"energy_j":0.5,`, 1), "")
	if !strings.Contains(stripped, `"energy_j":0.5,`) || strings.Contains(stripped, "digest") {
		t.Fatalf("probe edit failed: %s", stripped)
	}
	var probe entry
	if err := json.Unmarshal([]byte(stripped), &probe); err != nil {
		t.Fatalf("digest-less entry should decode (the store must catch it): %v", err)
	}
	path := filepath.Join(dir, fileName("key-b"))
	if err := os.WriteFile(path, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get("key-b"); ok || s3.Len() != 0 {
		t.Fatalf("digest-less entry served: Len() = %d", s3.Len())
	}
	reason, err := os.ReadFile(path + ".corrupt.reason")
	if err != nil || !strings.Contains(string(reason), "missing digest") {
		t.Fatalf("digest-less entry not quarantined for its digest: %q, %v", reason, err)
	}
}

func TestOpenRejectsGarbageAndMisnamedFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The garbage file is rejected — and quarantined — on the first open.
	if got := len(s.Rejected()); got != 1 {
		t.Fatalf("Rejected() = %v, want the garbage file", s.Rejected())
	}
	s.Put("key-a", runOne(t, "fft"))
	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, n := range names {
		// Copy the valid entry under a wrong content address.
		data, _ := os.ReadFile(n)
		if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 (misnamed entry rejected)", s2.Len())
	}
	if got := len(s2.Rejected()); got != 1 {
		t.Fatalf("Rejected() = %v, want the misnamed file", s2.Rejected())
	}
}

func TestStoreBacksExperiment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := ptbsim.Config{Benchmark: "ocean", Cores: 2, Technique: ptbsim.None}

	e1 := ptbsim.NewExperiment(ptbsim.WithScale(0.02), ptbsim.WithCache(s))
	first, err := e1.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if s.Len() != 1 {
		t.Fatalf("store Len() = %d after run, want 1", s.Len())
	}

	// Restart: a new experiment over a reopened store must serve the
	// result from disk without simulating (Cached provenance on Submit).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := ptbsim.NewExperiment(ptbsim.WithScale(0.02), ptbsim.WithCache(s2))
	defer e2.Close()
	job, err := e2.Submit(ctx, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := job.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Cached() {
		t.Fatal("restarted experiment re-simulated a persisted config")
	}
	if second.Digest() != first.Digest() {
		t.Fatalf("digest drifted across restart:\n old %s\n new %s", first.Digest(), second.Digest())
	}
}

// TestOpenRemovesLeftoverTemps pins that Open clears the temp files a
// crash leaves mid-write — a result's and a pending record's — without
// counting them as entries or rejections.
func TestOpenRemovesLeftoverTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("key-a", runOne(t, "fft"))
	temps := []string{fileName("key-b") + ".tmp123", pendingName("job-c") + ".tmp456"}
	for _, name := range temps {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"key":`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || len(s2.Rejected()) != 0 {
		t.Fatalf("Len=%d Rejected=%v, want 1 and none", s2.Len(), s2.Rejected())
	}
	for _, name := range temps {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("leftover temp file %s survived Open (stat err %v)", name, err)
		}
	}
}
