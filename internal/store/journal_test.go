package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openJ(t *testing.T, dir string) (*Journal, []JournalRecord) {
	t.Helper()
	j, pending, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, pending
}

func rec(id string) JournalRecord {
	return JournalRecord{ID: id, Config: json.RawMessage(`{"benchmark":"fft"}`), Priority: 1}
}

// pendingIDs is the set of IDs in a replayed record list.
func pendingIDs(recs []JournalRecord) map[string]bool {
	ids := make(map[string]bool, len(recs))
	for _, r := range recs {
		ids[r.ID] = true
	}
	return ids
}

func TestJournalAcceptReplayDone(t *testing.T) {
	dir := t.TempDir()
	j, pending := openJ(t, dir)
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := j.Accept(rec(id)); err != nil {
			t.Fatal(err)
		}
	}
	j.Done("b")
	if j.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", j.Pending())
	}
	j.Close()

	// The reboot: replay must surface exactly a and c, one file each.
	_, pending = openJ(t, dir)
	if ids := pendingIDs(pending); len(pending) != 2 || !ids["a"] || !ids["c"] {
		t.Fatalf("replayed pending = %+v, want {a c}", pending)
	}
	for _, r := range pending {
		if r.Priority != 1 || string(r.Config) != `{"benchmark":"fft"}` {
			t.Fatalf("record payload lost in replay: %+v", r)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 2 {
		t.Fatalf("journal directory holds %v, want the two pending files", files)
	}
}

func TestJournalDuplicateAcceptCoalesces(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJ(t, dir)
	if err := j.Accept(rec("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept(rec("a")); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", j.Pending())
	}
	j.Close()
	_, pending := openJ(t, dir)
	if ids := pendingIDs(pending); len(pending) != 1 || !ids["a"] {
		t.Fatalf("pending = %+v, want {a}", pending)
	}
}

// TestJournalConcurrentAcceptDone drives one journal from several
// goroutines, as the server's handlers and completion watchers do: each
// accepts its own jobs and a shared one, then clears half of its own.
// The pending files left are exactly the uncleared jobs.
func TestJournalConcurrentAcceptDone(t *testing.T) {
	dir := t.TempDir()
	j, _ := openJ(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := j.Accept(rec("shared")); err != nil {
					t.Error(err)
				}
				id := fmt.Sprintf("g%d-%d", g, i)
				if err := j.Accept(rec(id)); err != nil {
					t.Error(err)
				}
				if i%2 == 0 {
					j.Done(id)
				}
			}
		}(g)
	}
	wg.Wait()
	j.Close()

	_, pending := openJ(t, dir)
	ids := pendingIDs(pending)
	if len(pending) != 13 || !ids["shared"] {
		t.Fatalf("pending = %v, want shared and the 12 odd-numbered jobs", ids)
	}
	for g := 0; g < 4; g++ {
		for i := 1; i < 6; i += 2 {
			if id := fmt.Sprintf("g%d-%d", g, i); !ids[id] {
				t.Fatalf("pending = %v, lacks %s", ids, id)
			}
		}
	}
}

// TestJournalRefusesDamagedPending pins that a pending file which does
// not decode fails OpenJournal, naming the file, rather than dropping
// an accepted job without a word.
func TestJournalRefusesDamagedPending(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, pendingName("a"))
	if err := os.WriteFile(name, []byte(`{"id":"a","con`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("OpenJournal over a damaged pending file: err = %v, want one naming %s", err, name)
	}
}

// TestQuarantineAccounting pins the recovery bookkeeping of Open: a
// store with one good, one tampered and one misnamed entry serves
// exactly the good one, quarantines the other two as *.corrupt with
// reason sidecars, and a re-Open sees a clean directory (nothing is
// re-examined or double-counted).
func TestQuarantineAccounting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := runOne(t, "fft")
	s.Put("key-good", good)
	s.Put("key-bad", runOne(t, "radix"))

	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(names) != 2 {
		t.Fatalf("want 2 entry files, got %v", names)
	}
	badName := filepath.Join(dir, fileName("key-bad"))
	data, err := os.ReadFile(badName)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"cycles":`, `"cycles":9`, 1)
	if err := os.WriteFile(badName, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("cd", 32)+".json"), []byte(`{"key":"x","result":null}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s2.Len())
	}
	if got, ok := s2.Get("key-good"); !ok || got.Digest() != good.Digest() {
		t.Fatal("good entry lost during quarantine")
	}
	if len(s2.Rejected()) != 2 {
		t.Fatalf("Rejected() = %v, want 2", s2.Rejected())
	}
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(corrupt) != 2 {
		t.Fatalf("quarantined files = %v, want 2", corrupt)
	}
	for _, c := range corrupt {
		reason, err := os.ReadFile(c + ".reason")
		if err != nil || len(reason) == 0 {
			t.Fatalf("missing reason sidecar for %s: %v", c, err)
		}
	}

	// Third open: the quarantined files are out of the *.json namespace,
	// so recovery accounting starts clean.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 1 || len(s3.Rejected()) != 0 {
		t.Fatalf("re-open after quarantine: Len=%d Rejected=%v", s3.Len(), s3.Rejected())
	}
}
