// Package store persists experiment results on disk as a pluggable
// ptbsim.ResultCache backend: the cache that makes ptbserve's results
// survive restarts.
//
// Layout: one JSON file per cached configuration, named by the SHA-256
// of its canonical cache key (content addressing — keys are long and
// contain filesystem-hostile characters), each holding {key, result} in
// the stable wire schema. The result wire form embeds the self-verifying
// digest, so every load recomputes and checks it: a corrupted or
// hand-edited file — or one whose digest is missing — is rejected at
// open rather than served as a silently wrong result. Writes go through a temp-file rename, so a crash never
// leaves a half-written entry.
//
// The Store answers Get from an in-memory front (loaded at Open, updated
// by Put), keeping the hot path IO-free as the ResultCache contract
// requires; Put writes through to disk. The first write error latches —
// the store keeps serving from memory and reports the error via Err.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ptbsim"
)

// entry is the on-disk form of one cached result.
type entry struct {
	// Key is the experiment's canonical cache key for the configuration.
	Key string `json:"key"`
	// Result is the cached result in the stable wire schema (digest
	// included, verified on decode).
	Result *ptbsim.Result `json:"result"`
}

// Store is a digest-verified on-disk result cache. It satisfies
// ptbsim.ResultCache and is safe for concurrent use.
type Store struct {
	dir string

	mu       sync.Mutex
	mem      map[string]*ptbsim.Result
	byDigest map[string]*ptbsim.Result // sha fragment → result
	err      error                     // first write failure, latched
	rejected []string                  // files refused at Open, by name
}

// Open loads (or creates) a store rooted at dir. Every existing entry is
// decoded and digest-verified; files that fail — truncated writes,
// corruption, hand edits — are excluded from the cache, quarantined on
// disk (renamed to *.corrupt next to a .reason sidecar naming what was
// wrong) and reported by Rejected, so a damaged entry is recomputed on
// the next request instead of served, and never re-examined on the next
// Open. Only *.json files are considered.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		mem:      make(map[string]*ptbsim.Result),
		byDigest: make(map[string]*ptbsim.Result),
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			s.quarantine(name, fmt.Sprintf("unreadable: %v", err))
			continue
		}
		var e entry
		if err := json.Unmarshal(data, &e); err != nil {
			// Includes ptbsim.ErrDigestMismatch: the result wire form
			// self-checks on decode.
			s.quarantine(name, fmt.Sprintf("undecodable: %v", err))
			continue
		}
		if e.Key == "" || e.Result == nil {
			s.quarantine(name, "incomplete entry: missing key or result")
			continue
		}
		// The result decoder verifies a digest only when one is present,
		// and Put always writes one: an entry without it was not written
		// by this store (or had it stripped) and cannot be checked.
		var probe struct {
			Result struct {
				Digest string `json:"digest"`
			} `json:"result"`
		}
		if json.Unmarshal(data, &probe) != nil || probe.Result.Digest == "" {
			s.quarantine(name, "missing digest")
			continue
		}
		if filepath.Base(name) != fileName(e.Key) {
			// Entry renamed or copied under a foreign key hash.
			s.quarantine(name, fmt.Sprintf("misnamed: key hashes to %s", fileName(e.Key)))
			continue
		}
		s.mem[e.Key] = e.Result
		s.byDigest[DigestFragment(e.Result)] = e.Result
	}
	return s, nil
}

// quarantine records a refused entry and moves it aside: name becomes
// name.corrupt with a name.corrupt.reason sidecar for post-mortems. A
// failed rename leaves the file in place — it is still excluded from the
// cache, just re-examined on the next Open.
func (s *Store) quarantine(name, reason string) {
	s.rejected = append(s.rejected, filepath.Base(name))
	if err := os.Rename(name, name+".corrupt"); err != nil {
		return
	}
	_ = os.WriteFile(name+".corrupt.reason", []byte(reason+"\n"), 0o644)
}

// fileName is the content address of a cache key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// DigestFragment extracts the short sha fragment from a result's digest
// line — the handle results are looked up by over the service API.
func DigestFragment(r *ptbsim.Result) string {
	d := r.Digest()
	if i := strings.LastIndex(d, " sha="); i >= 0 {
		return d[i+len(" sha="):]
	}
	return d
}

// Get answers from the in-memory front; it never touches the disk.
func (s *Store) Get(key string) (*ptbsim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.mem[key]
	return r, ok
}

// Put stores the result in memory and writes it through to disk
// atomically (temp file + rename). A write failure latches into Err; the
// in-memory entry stands either way.
func (s *Store) Put(key string, r *ptbsim.Result) {
	s.mu.Lock()
	s.mem[key] = r
	s.byDigest[DigestFragment(r)] = r
	s.mu.Unlock()

	data, err := json.Marshal(entry{Key: key, Result: r})
	if err == nil {
		err = writeAtomic(s.dir, fileName(key), data)
	}
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = fmt.Errorf("store: persisting %q: %w", key, err)
		}
		s.mu.Unlock()
	}
}

// writeAtomic lands data at dir/name via a same-directory temp file and
// rename, so readers and crash recovery never see a partial entry.
func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Len reports the number of cached results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// ByDigest looks a cached result up by its short digest fragment (the
// sha=… tail of Result.Digest()).
func (s *Store) ByDigest(frag string) (*ptbsim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byDigest[frag]
	return r, ok
}

// Err reports the first write-through failure, if any. The in-memory
// cache is unaffected by write failures.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Rejected lists the file names refused at Open (corrupt, tampered, or
// misnamed entries). They stay on disk for post-mortem inspection.
func (s *Store) Rejected() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.rejected...)
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }
