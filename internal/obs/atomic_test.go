package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, []byte("a,b\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a,b\n1,2\n" {
		t.Errorf("content = %q", got)
	}
	// Overwrite must replace the whole file, and no temp files may
	// survive either write.
	if err := WriteFileAtomic(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "new\n" {
		t.Errorf("after overwrite content = %q", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp files leaked?)", len(ents))
	}
}

func TestAtomicFileAbortLeavesDestinationUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	a, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("partial garbage"))
	a.Abort()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "old" {
		t.Errorf("destination = %q, %v; want intact %q", got, err, "old")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("temp file leaked: %d entries", len(ents))
	}
}
