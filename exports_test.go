package ewmac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported funcs and methods under internal/
// that no production code names but that stay on purpose, one reason
// each. Keys are "pkg.Func" or "pkg.Type.Method".
var testOnlyAllowed = map[string]string{
	"acoustic.Model.ReceivedLevelDB": "bit-for-bit reference the tests hold LevelAtDB to",
	"acoustic.Model.SINRDB":          "bit-for-bit reference the tests hold SINRDBFromLin to",
	"analysis.ExploitCeilingKbps":    "§5 model the throughput-ceiling test compares against",
	"analysis.ContentionEfficiency":  "§5 model the throughput-ceiling test compares against",
	"analysis.SlotUtilization":       "§5 model the throughput-ceiling test compares against",
	"analysis.OptimalDataBits":       "§5 model the throughput-ceiling test compares against",
	"phy.Modem.Down":                 "fault tests check a crash from another package; no event shows it",
	"traffic.Generator.Unrouted":     "only record of packets a source never hands to the MAC",
	"traffic.Generator.Throttled":    "only record of packets a source withholds under backpressure",
	"fault.Dur.MarshalJSON":          "called by encoding/json",
	"fault.Dur.UnmarshalJSON":        "called by encoding/json",
	"sim.BudgetError.Unwrap":         "called by errors.Is and errors.As",
	"sim.lazySource.Int63":           "called by rand.Rand through rand.Source",
}

// TestNoTestOnlyExports fails when an exported func or method declared
// under internal/ is named nowhere in non-test code (internal/, cmd/,
// examples/, the root package and the simbench sources). Such a symbol
// is API surface that only tests reach: move it into a _test.go file,
// delete it, or allowlist it above with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A declaration's own name is not a use of it.
		declared := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	var bad []string
	for _, d := range decls {
		if !used[d.name] && testOnlyAllowed[d.key] == "" {
			bad = append(bad, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but named by no non-test code: %s", b)
	}
	for key := range testOnlyAllowed {
		found := false
		for _, d := range decls {
			if d.key == key {
				found = true
				if used[d.name] {
					t.Errorf("allowlist entry %s is named by non-test code; drop it", key)
				}
			}
		}
		if !found {
			t.Errorf("allowlist entry %s names no declaration; drop it", key)
		}
	}
}

// recvType returns the type name of a method receiver.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
