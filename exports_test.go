package ewmac_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed lists the exported funcs and methods under internal/
// that no production code names but that stay on purpose, one reason
// each. Keys are "pkg.Func" or "pkg.Type.Method".
var testOnlyAllowed = map[string]string{
	"acoustic.Model.ReceivedLevelDB": "bit-for-bit reference the tests hold LevelAtDB to",
	"acoustic.Model.SINRDB":          "bit-for-bit reference the tests hold SINRDBFromLin to",
	"acoustic.Model.Delay":           "bit-for-bit reference the tests hold DelayOver to",
	"topology.Network.MeanDegree":    "the topology tests check PairStats' degree through it",
	"topology.Network.MaxPairDelay":  "the topology tests check PairStats' delay through it",
	"acoustic.UniformLossPER.PER":    "failure tests inject UniformLossPER through experiment.Config.PER",
	"analysis.ExploitCeilingKbps":    "§5 model the throughput-ceiling test compares against",
	"analysis.ContentionEfficiency":  "§5 model the throughput-ceiling test compares against",
	"analysis.SlotUtilization":       "§5 model the throughput-ceiling test compares against",
	"analysis.OptimalDataBits":       "§5 model the throughput-ceiling test compares against",
	"mac.Base.Ledger":                "EW-MAC's guard tests plant an overheard exchange in the ledger",
	"phy.Modem.Down":                 "fault tests check a crash from another package; no event shows it",
	"traffic.Generator.Unrouted":     "only record of packets a source never hands to the MAC",
	"traffic.Generator.Throttled":    "only record of packets a source withholds under backpressure",
	"fault.Dur.MarshalJSON":          "called by encoding/json",
	"fault.Dur.UnmarshalJSON":        "called by encoding/json",
	"sim.BudgetError.Unwrap":         "called by errors.Is and errors.As",
	"sim.lazySource.Int63":           "called by rand.Rand through rand.Source",
}

// TestNoTestOnlyExports fails when an exported func or method declared
// under internal/ is used by no non-test code (internal/, cmd/,
// examples/, the root package and the simbench sources). Uses are
// resolved by the type checker, so a same-named method of another type
// does not count. A method also counts as used when non-test code calls
// it through an interface that its type, named somewhere in non-test
// code, implements. Such a symbol is API surface that only tests reach:
// move it into a _test.go file, delete it, or allowlist it above with a
// reason.
func TestNoTestOnlyExports(t *testing.T) {
	r := loadRepo(t)
	type decl struct {
		key, pos string
		fn       *types.Func
	}
	var decls []decl
	for _, p := range r.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, r.fset.Position(fd.Pos()).String(), r.info.Defs[fd.Name].(*types.Func)})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	// used holds every func and method non-test code names; named
	// holds the repo's named types it names, so their methods can be
	// reached through interfaces.
	used := map[*types.Func]bool{}
	var named []*types.Named
	seen := map[*types.TypeName]bool{}
	r.eachUse(func(obj types.Object) {
		switch obj := obj.(type) {
		case *types.Func:
			used[obj.Origin()] = true
		case *types.TypeName:
			if n, ok := obj.Type().(*types.Named); ok && r.own(obj.Pkg()) && !seen[obj] {
				seen[obj] = true
				named = append(named, n)
			}
		}
	})
	// fmt calls String and Error on the values it formats, so
	// fmt.Stringer and error count as called through.
	fmtPkg, err := r.std.ImportFrom("fmt", ".", 0)
	if err != nil {
		t.Fatal(err)
	}
	ifaceMethods := []*types.Func{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0),
	}
	for fn := range used {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	for _, fn := range ifaceMethods {
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			ptr := types.NewPointer(n)
			if types.IsInterface(n) || !types.Implements(ptr, iface) {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name()); m != nil {
				used[m.(*types.Func)] = true
			}
		}
	}

	var bad []string
	for _, d := range decls {
		if !used[d.fn] && testOnlyAllowed[d.key] == "" {
			bad = append(bad, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but used by no non-test code: %s", b)
	}
	for key := range testOnlyAllowed {
		found := false
		for _, d := range decls {
			if d.key == key {
				found = true
				if used[d.fn] {
					t.Errorf("allowlist entry %s is used by non-test code; drop it", key)
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

// repo is every non-test Go package under the repo root (internal/,
// cmd/, examples/, the root package and simbench/), type-checked into
// one types.Info so that each identifier resolves to the one object it
// names. The repo's packages are checked from their own files; the
// standard library comes from one shared source importer.
type repo struct {
	fset   *token.FileSet
	info   *types.Info
	pkgs   []*repoPkg
	byPath map[string]*repoPkg
	std    types.ImporterFrom
}

type repoPkg struct {
	path, dir string
	files     []*ast.File
	types     *types.Package
	err       error
}

// modulePath is the import path of the repo root; simbench's module
// path sits under it, so one mapping serves both modules.
const modulePath = "ewmac"

var (
	repoOnce   sync.Once
	repoLoaded *repo
	repoErr    error
)

// loadRepo type-checks the repo once per test binary; both guards
// share the result.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	repoOnce.Do(func() { repoLoaded, repoErr = typeCheckRepo() })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoLoaded
}

func typeCheckRepo() (*repo, error) {
	r := &repo{
		fset:   token.NewFileSet(),
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		byPath: map[string]*repoPkg{},
	}
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
		f, err := parser.ParseFile(r.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := modulePath
		if dir != "." {
			ip += "/" + dir
		}
		p := r.byPath[ip]
		if p == nil {
			p = &repoPkg{path: ip, dir: dir}
			r.byPath[ip] = p
			r.pkgs = append(r.pkgs, p)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Check the pure-Go variants of the standard library's cgo
	// packages, so no C toolchain runs.
	build.Default.CgoEnabled = false
	r.std = importer.ForCompiler(r.fset, "source", nil).(types.ImporterFrom)
	for _, p := range r.pkgs {
		if _, err := r.check(p); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
	}
	return r, nil
}

func (r *repo) check(p *repoPkg) (*types.Package, error) {
	if p.types == nil && p.err == nil {
		conf := types.Config{Importer: r}
		p.types, p.err = conf.Check(p.path, r.fset, p.files, r.info)
	}
	return p.types, p.err
}

// Import and ImportFrom make repo the importer of its own packages.
func (r *repo) Import(path string) (*types.Package, error) { return r.ImportFrom(path, ".", 0) }

func (r *repo) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := r.byPath[path]; p != nil {
		return r.check(p)
	}
	return r.std.ImportFrom(path, dir, mode)
}

// own reports whether pkg is one of the repo's packages.
func (r *repo) own(pkg *types.Package) bool {
	return pkg != nil && r.byPath[pkg.Path()] != nil
}

// eachUse calls fn with the object of every identifier non-test code
// uses, skipping method receivers and blank compile-time assertions
// (var _ I = T{}): neither reaches the object at run time.
func (r *repo) eachUse(fn func(types.Object)) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			}
		case *ast.ValueSpec:
			if blank(n.Names) {
				return false
			}
		case *ast.Ident:
			if obj := r.info.Uses[n]; obj != nil {
				fn(obj)
			}
		}
		return true
	}
	for _, p := range r.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, visit)
		}
	}
}

func blank(ids []*ast.Ident) bool {
	for _, id := range ids {
		if id.Name != "_" {
			return false
		}
	}
	return true
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
	"experiment.Config.Protocol":         "set by Default(p), the constructor every run starts from",
	"experiment.Config.PER":              "failure tests inject UniformLossPER; runs use the threshold receiver",
	"experiment.Config.Warmup":           "Table 2's Hello phase, set by Default; validation tests vary it",
	"phy.Config.Listener":                "a callback, not a setting: runs install the MAC with SetListener once it exists",
}

// TestNoTestOnlyOptions fails when an exported field of an exported
// *Config or *Options struct under internal/ is set by no non-test code
// outside the struct's own package. A set is an assignment to ".Field"
// or a keyed "Field:" in a composite literal, resolved by the type
// checker to the field itself. Such a field is a setting only tests (or
// nothing) vary: make it a constant or derive it, or allowlist it above
// with a reason.
func TestNoTestOnlyOptions(t *testing.T) {
	r := loadRepo(t)
	type field struct {
		key, pos string
		v        *types.Var
	}
	var fields []field
	for _, p := range r.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() {
					fields = append(fields, field{p.types.Name() + "." + name + "." + v.Name(), r.fset.Position(v.Pos()).String(), v})
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no exported option fields under internal/")
	}

	// setOutside holds the fields some package other than their own sets.
	setOutside := map[*types.Var]bool{}
	for _, p := range r.pkgs {
		set := func(id *ast.Ident) {
			if v, ok := r.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.types {
				setOutside[v.Origin()] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set(sel.Sel)
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set(id)
					}
				}
				return true
			})
		}
	}
	var bad []string
	for _, fl := range fields {
		if !setOutside[fl.v] && optionsAllowed[fl.key] == "" {
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
				if setOutside[fl.v] {
					t.Errorf("allowlist entry %s is set by non-test code outside its package; drop it", key)
				}
			}
		}
		if !found {
			t.Errorf("allowlist entry %s names no option field; drop it", key)
		}
	}
}
