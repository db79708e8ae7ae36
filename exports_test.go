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
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	walkNonTestGo(t, func(path string, fset *token.FileSet, f *ast.File) {
		// A declaration's own name is not a use of it.
		declared := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(path, "internal/")
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
	})
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

// walkNonTestGo parses every non-test Go file under the repo root
// (internal/, cmd/, examples/, the root package and simbench/) and hands
// it to fn with its slash-separated path.
func walkNonTestGo(t *testing.T, fn func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
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
		fn(filepath.ToSlash(path), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// optionsAllowed lists the exported fields of internal *Config and
// *Options structs that no production code outside their package sets
// but that stay on purpose, one reason each. Keys are
// "pkg.Type.Field".
var optionsAllowed = map[string]string{
	"ewmac.Options.DisableNeighborGuard": "ablation arm of BenchmarkAblationNoGuard, whose §4.2 breaches the oracle must count",
	"ewmac.Options.UniformPriority":      "ablation arm of BenchmarkAblationUniformPriority (the rp wait-time boost)",
	"experiment.Config.EW":               "carries the EW-MAC ablation options above into a run",
	"experiment.Config.MaxRetries":       "retry-exhaustion tests; Table 2 sets no retry limit",
	"experiment.Config.PER":              "failure tests inject UniformLossPER; runs use the threshold receiver",
	"experiment.Config.Warmup":           "Table 2's Hello phase, set by Default; validation tests vary it",
	"phy.Config.Listener":                "a callback, not a setting: runs install the MAC with SetListener once it exists",
}

// TestNoTestOnlyOptions fails when an exported field of an exported
// *Config or *Options struct under internal/ is set by no non-test code
// outside the struct's own package. A set is an assignment to ".Field"
// or a keyed "Field:" in a composite literal, matched by name. Such a
// field is a setting only tests (or nothing) vary: make it a constant
// or derive it, or allowlist it above with a reason.
func TestNoTestOnlyOptions(t *testing.T) {
	type field struct{ key, name, dir, pos string }
	var fields []field
	// setIn maps a field name to the directories whose code sets it.
	setIn := map[string]map[string]bool{}
	set := func(name, dir string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][dir] = true
	}
	walkNonTestGo(t, func(path string, fset *token.FileSet, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(path, "internal/") {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, sp := range gd.Specs {
					ts := sp.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					name := ts.Name.Name
					if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{f.Name.Name + "." + name + "." + id.Name, id.Name, dir, fset.Position(id.Pos()).String()})
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(sel.Sel.Name, dir)
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(id.Name, dir)
				}
			}
			return true
		})
	})
	if len(fields) == 0 {
		t.Fatal("found no exported option fields under internal/")
	}
	setOutside := func(fl field) bool {
		for dir := range setIn[fl.name] {
			if dir != fl.dir {
				return true
			}
		}
		return false
	}
	var bad []string
	for _, fl := range fields {
		if !setOutside(fl) && optionsAllowed[fl.key] == "" {
			bad = append(bad, fl.key+" ("+fl.pos+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("option set by no non-test code outside its package: %s", b)
	}
	for key := range optionsAllowed {
		found := false
		for _, fl := range fields {
			if fl.key == key {
				found = true
				if setOutside(fl) {
					t.Errorf("allowlist entry %s is set by non-test code outside its package; drop it", key)
				}
			}
		}
		if !found {
			t.Errorf("allowlist entry %s names no option field; drop it", key)
		}
	}
}
