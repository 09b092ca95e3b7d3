package store

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"

	"dirigent/internal/wal"
)

func TestMemoryKV(t *testing.T) {
	s := NewMemory()
	if _, ok := s.Get("missing"); ok {
		t.Errorf("Get(missing) should report absence")
	}
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || string(v) != "v" {
		t.Errorf("Get(k) = %q, %v", v, ok)
	}
	if s.Keys() != 1 {
		t.Errorf("Keys = %d", s.Keys())
	}
	if err := s.Del("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Errorf("Get after Del should report absence")
	}
}

func TestMemoryHashes(t *testing.T) {
	s := NewMemory()
	if err := s.HSet("functions", "f1", []byte("spec1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("functions", "f2", []byte("spec2")); err != nil {
		t.Fatal(err)
	}
	if s.HLen("functions") != 2 {
		t.Errorf("HLen = %d", s.HLen("functions"))
	}
	v, ok := s.HGet("functions", "f1")
	if !ok || string(v) != "spec1" {
		t.Errorf("HGet = %q, %v", v, ok)
	}
	all := s.HGetAll("functions")
	if len(all) != 2 || string(all["f2"]) != "spec2" {
		t.Errorf("HGetAll = %v", all)
	}
	if err := s.HDel("functions", "f1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.HGet("functions", "f1"); ok {
		t.Errorf("HGet after HDel should report absence")
	}
	if err := s.HDel("functions", "f2"); err != nil {
		t.Fatal(err)
	}
	if s.HLen("functions") != 0 {
		t.Errorf("hash should be empty")
	}
	// Deleting from a nonexistent hash must be a no-op.
	if err := s.HDel("nope", "x"); err != nil {
		t.Errorf("HDel on missing hash: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.aof")
	s, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set("cluster", []byte("epoch-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("workers", "w1", []byte("addr1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet("workers", "w2", []byte("addr2")); err != nil {
		t.Fatal(err)
	}
	if err := s.HDel("workers", "w2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("cluster"); !ok || string(v) != "epoch-1" {
		t.Errorf("Get after reopen = %q, %v", v, ok)
	}
	if _, ok := s2.HGet("workers", "w2"); ok {
		t.Errorf("deleted field resurrected after reopen")
	}
	if v, ok := s2.HGet("workers", "w1"); !ok || string(v) != "addr1" {
		t.Errorf("HGet after reopen = %q, %v", v, ok)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.aof")
	s, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	// Many overwrites of the same key bloat the AOF.
	for i := 0; i < 500; i++ {
		if err := s.Set("hot", bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, wal.FsyncNever)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer s2.Close()
	v, ok := s2.Get("hot")
	if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(499 % 256)}, 64)) {
		t.Errorf("compacted value lost")
	}
}

func TestOpMarshalRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpSet, Key: "k", Value: []byte("v")},
		{Kind: OpDel, Key: "k"},
		{Kind: OpHSet, Key: "h", Field: "f", Value: []byte("x")},
		{Kind: OpHDel, Key: "h", Field: "f"},
	}
	for _, op := range ops {
		got, err := UnmarshalOp(op.Marshal())
		if err != nil {
			t.Fatalf("unmarshal %v: %v", op.Kind, err)
		}
		if got.Kind != op.Kind || got.Key != op.Key || got.Field != op.Field || !bytes.Equal(got.Value, op.Value) {
			t.Errorf("round trip %+v -> %+v", op, got)
		}
	}
}

// TestQuickOpRoundTrip property-tests AOF op serialization.
func TestQuickOpRoundTrip(t *testing.T) {
	f := func(kind uint8, key, field string, value []byte) bool {
		if len(key) > 60000 || len(field) > 60000 {
			return true
		}
		op := Op{Kind: OpKind(kind % 4), Key: key, Field: field, Value: value}
		got, err := UnmarshalOp(op.Marshal())
		if err != nil {
			return false
		}
		return got.Kind == op.Kind && got.Key == op.Key && got.Field == op.Field && bytes.Equal(got.Value, op.Value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDumpOpsReconstructsState(t *testing.T) {
	s := NewMemory()
	s.Set("a", []byte("1"))
	s.HSet("h", "f1", []byte("2"))
	s.HSet("h", "f2", []byte("3"))
	clone := NewMemory()
	for _, op := range s.DumpOps() {
		if err := clone.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := clone.Get("a"); string(v) != "1" {
		t.Errorf("clone missing key")
	}
	if clone.HLen("h") != 2 {
		t.Errorf("clone missing hash fields")
	}
}
