package fsim

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"
)

func write(t *testing.T, f File, p []byte) {
	t.Helper()
	if _, err := f.Write(p); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func TestMemSyncedPrefixSurvivesCrash(t *testing.T) {
	m := NewMem(Faults{})
	f, err := m.Append("wal/seg")
	if err != nil {
		t.Fatal(err)
	}
	write(t, f, []byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write(t, f, []byte(" volatile"))
	m.Crash()

	img := m.Image()
	got, err := img.ReadFile("wal/seg")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("image = %q, want synced prefix %q", got, "durable")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: err = %v, want ErrCrashed", err)
	}
}

func TestMemTearWritesDeterministic(t *testing.T) {
	run := func() []byte {
		m := NewMem(Faults{TearWrites: true, Seed: 42})
		f, _ := m.Append("seg")
		write(t, f, []byte("synced"))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		write(t, f, []byte("0123456789"))
		m.Crash()
		got, err := m.Image().ReadFile("seg")
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different images: %q vs %q", a, b)
	}
	if !bytes.HasPrefix(a, []byte("synced")) {
		t.Fatalf("image %q lost the synced prefix", a)
	}
	if !bytes.HasPrefix([]byte("synced0123456789"), a) {
		t.Fatalf("image %q is not a prefix of the written stream", a)
	}
}

func TestMemDropRenamesRollsBackUncommitted(t *testing.T) {
	m := NewMem(Faults{DropRenames: true})
	old, _ := m.Create("dir/target")
	write(t, old, []byte("original"))
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	tmp, _ := m.Create("dir/tmp")
	write(t, tmp, []byte("replacement"))
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("dir/tmp", "dir/target"); err != nil {
		t.Fatal(err)
	}
	m.Crash()

	img := m.Image()
	got, err := img.ReadFile("dir/target")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("uncommitted rename survived crash: target = %q", got)
	}
	if back, err := img.ReadFile("dir/tmp"); err != nil || string(back) != "replacement" {
		t.Fatalf("rolled-back temp = %q, %v; want replacement", back, err)
	}
}

func TestMemSyncCommitsRename(t *testing.T) {
	m := NewMem(Faults{DropRenames: true})
	tmp, _ := m.Create("dir/tmp")
	write(t, tmp, []byte("replacement"))
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("dir/tmp", "dir/target"); err != nil {
		t.Fatal(err)
	}
	other, _ := m.Create("dir/other")
	if err := other.Sync(); err != nil { // any fsync commits the journal
		t.Fatal(err)
	}
	m.Crash()
	got, err := m.Image().ReadFile("dir/target")
	if err != nil || string(got) != "replacement" {
		t.Fatalf("committed rename lost: target = %q, %v", got, err)
	}
}

func TestMemFailSyncN(t *testing.T) {
	m := NewMem(Faults{FailSyncN: 2})
	f, _ := m.Append("seg")
	write(t, f, []byte("one"))
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	write(t, f, []byte("two"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 2: err = %v, want ErrInjected", err)
	}
	got, err := m.Image().ReadFile("seg")
	if err != nil || string(got) != "one" {
		t.Fatalf("after failed sync, durable = %q, %v; want %q", got, err, "one")
	}
}

func TestMemCrashAtEveryOp(t *testing.T) {
	sequence := func(m *Mem) {
		f, err := m.Append("d/a")
		if err != nil {
			return
		}
		if _, err := f.Write([]byte("aaaa")); err != nil {
			return
		}
		if err := f.Sync(); err != nil {
			return
		}
		g, err := m.Create("d/tmp")
		if err != nil {
			return
		}
		if _, err := g.Write([]byte("bbbb")); err != nil {
			return
		}
		if err := g.Sync(); err != nil {
			return
		}
		if err := m.Rename("d/tmp", "d/b"); err != nil {
			return
		}
		if err := f.Sync(); err != nil {
			return
		}
		_ = m.Remove("d/a")
	}
	dry := NewMem(Faults{})
	sequence(dry)
	total := dry.Ops()
	if total < 8 {
		t.Fatalf("dry run counted %d ops, want >= 8", total)
	}
	for n := 1; n <= total; n++ {
		m := NewMem(Faults{CrashAtOp: n, TearWrites: true, DropRenames: true, Seed: int64(n)})
		sequence(m)
		if !m.Crashed() {
			t.Fatalf("failpoint %d: never crashed", n)
		}
		img := m.Image()
		if _, err := img.ReadDir("d"); err != nil {
			t.Fatalf("failpoint %d: image unreadable: %v", n, err)
		}
	}
}

func TestOSRoundtrip(t *testing.T) {
	var osfs OS
	dir := t.TempDir()
	if err := osfs.MkdirAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "wal", "seg-1")
	f, err := osfs.Append(name)
	if err != nil {
		t.Fatal(err)
	}
	write(t, f, []byte("hello "))
	write(t, f, []byte("world"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := osfs.ReadDir(filepath.Join(dir, "wal"))
	if err != nil || len(names) != 1 || names[0] != "seg-1" {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
	if err := osfs.Rename(name, name+".bak"); err != nil {
		t.Fatal(err)
	}
	got, err := osfs.ReadFile(name + ".bak")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := osfs.Remove(name + ".bak"); err != nil {
		t.Fatal(err)
	}
	if _, err := osfs.ReadFile(name + ".bak"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed file still readable: %v", err)
	}
	if missing, err := osfs.ReadDir(filepath.Join(dir, "nope")); err != nil || missing != nil {
		t.Fatalf("missing dir: %v, %v", missing, err)
	}
}
