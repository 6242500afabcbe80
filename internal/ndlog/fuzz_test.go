package ndlog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse: NDlog source arrives from outside (fvn's .ndlog files, the
// service's src fields), so Parse and then Analyze must return an error
// on bad input, never panic. Seeded with the shipped example programs.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/ndlog/*.ndlog")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example programs to seed from (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		Analyze(prog)
	})
}
