package rms

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// storeFactories lets every behavioural test run against both
// backends: the one in memory and the one on file (the WAL).
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore("test", 0) },
		"file": func() Store {
			s, err := OpenWALStore(filepath.Join(t.TempDir(), "test.rms"), WALOptions{})
			if err != nil {
				t.Fatalf("OpenWALStore: %v", err)
			}
			return s
		},
	}
}

func TestStoreBasics(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()

			id1, err := s.Add([]byte("alpha"))
			if err != nil {
				t.Fatalf("Add: %v", err)
			}
			if id1 != 1 {
				t.Fatalf("first id = %d, want 1", id1)
			}
			id2, _ := s.Add([]byte("beta"))
			if id2 != 2 {
				t.Fatalf("second id = %d, want 2", id2)
			}
			got, err := s.Get(id1)
			if err != nil || string(got) != "alpha" {
				t.Fatalf("Get(1) = %q, %v", got, err)
			}
			if err := s.Set(id1, []byte("ALPHA")); err != nil {
				t.Fatalf("Set: %v", err)
			}
			got, _ = s.Get(id1)
			if string(got) != "ALPHA" {
				t.Fatalf("after Set, Get = %q", got)
			}
			n, _ := s.NumRecords()
			if n != 2 {
				t.Fatalf("NumRecords = %d", n)
			}
			if err := s.Delete(id1); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := s.Get(id1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after delete err = %v, want ErrNotFound", err)
			}
			// Deleted ids are never reused.
			id3, _ := s.Add([]byte("gamma"))
			if id3 != 3 {
				t.Fatalf("id after delete = %d, want 3", id3)
			}
			ids, _ := s.IDs()
			if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
				t.Fatalf("IDs = %v", ids)
			}
			size, _ := s.Size()
			if size != len("beta")+len("gamma") {
				t.Fatalf("Size = %d", size)
			}
		})
	}
}

func TestStoreErrors(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if _, err := s.Get(99); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(99) err = %v", err)
			}
			if err := s.Set(99, nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Set(99) err = %v", err)
			}
			if err := s.Delete(99); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(99) err = %v", err)
			}
			s.Close()
			if _, err := s.Add(nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("Add after close err = %v", err)
			}
			if _, err := s.Get(1); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after close err = %v", err)
			}
			if _, err := s.IDs(); !errors.Is(err, ErrClosed) {
				t.Fatalf("IDs after close err = %v", err)
			}
		})
	}
}

func TestGetReturnsCopy(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			id, _ := s.Add([]byte("abc"))
			got, _ := s.Get(id)
			got[0] = 'X'
			again, _ := s.Get(id)
			if string(again) != "abc" {
				t.Fatalf("store data mutated through Get: %q", again)
			}
		})
	}
}

func TestMemStoreCapacity(t *testing.T) {
	s := NewMemStore("cap", 10)
	if _, err := s.Add(make([]byte, 8)); err != nil {
		t.Fatalf("Add 8: %v", err)
	}
	if _, err := s.Add(make([]byte, 8)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("over-capacity Add err = %v", err)
	}
	// Set that grows past capacity also fails.
	id, _ := s.Add(make([]byte, 1))
	if err := s.Set(id, make([]byte, 4)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("over-capacity Set err = %v", err)
	}
	// Set that fits succeeds.
	if err := s.Set(id, make([]byte, 2)); err != nil {
		t.Fatalf("in-capacity Set: %v", err)
	}
}

// sameContents reports whether two stores hold the same live records
// and will allocate the same next id.
func sameContents(a, b Store) bool {
	aIDs, _ := a.IDs()
	bIDs, _ := b.IDs()
	if len(aIDs) != len(bIDs) {
		return false
	}
	for i := range aIDs {
		aData, _ := a.Get(aIDs[i])
		bData, _ := b.Get(bIDs[i])
		if aIDs[i] != bIDs[i] || !bytes.Equal(aData, bData) {
			return false
		}
	}
	aNext, _ := a.NextID()
	bNext, _ := b.NextID()
	return aNext == bNext
}

// TestQuickMemFileEquivalence drives MemStore (the reference) and the
// on-file store with the same random operation sequence and checks they
// stay observably identical — before and after the file is closed and
// reopened.
func TestQuickMemFileEquivalence(t *testing.T) {
	type op struct {
		Kind byte
		ID   uint8
		Data []byte
	}
	f := func(ops []op) bool {
		mem := NewMemStore("m", 0)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("eq-%d.rms", rand.Int()))
		file := openTestWAL(t, dir, WALOptions{Sync: SyncNever})
		for _, o := range ops {
			id := int(o.ID%16) + 1
			switch o.Kind % 4 {
			case 0:
				m, e1 := mem.Add(o.Data)
				fi, e2 := file.Add(o.Data)
				if (e1 == nil) != (e2 == nil) || m != fi {
					return false
				}
			case 1:
				_, e1 := mem.Get(id)
				_, e2 := file.Get(id)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			case 2:
				e1 := mem.Set(id, o.Data)
				e2 := file.Set(id, o.Data)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			case 3:
				e1 := mem.Delete(id)
				e2 := file.Delete(id)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			}
		}
		if !sameContents(mem, file) {
			return false
		}
		if err := file.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		re := openTestWAL(t, dir, WALOptions{Sync: SyncNever})
		defer re.Close()
		return sameContents(mem, re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFileStorePersistenceProperty: random add/set/delete against the
// on-file store, closed and reopened every 25 ops and carried on from
// the reopened handle — every generation must match the MemStore
// reference, id watermark included, so appends made after a recovery
// land on a prefix the next recovery replays.
func TestFileStorePersistenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("p%d.rms", trial))
		s := openTestWAL(t, dir, WALOptions{Sync: SyncNever})
		ref := NewMemStore("ref", 0)
		both := func(op Op) {
			ids, err := s.Apply([]Op{op})
			refIDs, refErr := ref.Apply([]Op{op})
			if err != nil || refErr != nil || ids[0] != refIDs[0] {
				t.Fatalf("trial %d: %+v: file %v, %v; mem %v, %v", trial, op, ids, err, refIDs, refErr)
			}
		}
		for i := 0; i < 100; i++ {
			live, _ := ref.IDs()
			data := make([]byte, r.Intn(64))
			r.Read(data)
			switch k := r.Intn(3); {
			case k == 0 || len(live) == 0:
				both(Op{Op: OpAdd, Data: data})
			case k == 1:
				both(Op{Op: OpSet, ID: live[r.Intn(len(live))], Data: data})
			default:
				both(Op{Op: OpDelete, ID: live[r.Intn(len(live))]})
			}
			if i%25 == 24 {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = openTestWAL(t, dir, WALOptions{Sync: SyncNever})
				if !sameContents(ref, s) {
					t.Fatalf("trial %d: reopened store diverges from the reference after %d ops", trial, i+1)
				}
			}
		}
		s.Close()
	}
}

// TestWALStoreRefusesSingleFileStore: the path of a store an earlier
// build wrote as one file is refused by name, not by a mkdir error.
func TestWALStoreRefusesSingleFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pdagent.rms")
	if err := os.WriteFile(path, []byte("PDRMS1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenWALStore(path, WALOptions{})
	if err == nil || !strings.Contains(err.Error(), "single-file store written by an earlier build") {
		t.Fatalf("OpenWALStore over a single-file store = %v, want it refused by name", err)
	}
}
