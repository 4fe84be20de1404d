package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSettingsInventory lists the exported fields of every struct type
// named *Config or *Options in the module's non-test Go files (the
// nested bench module aside) and pins the list: a new setting is an
// edit here, in plain sight, and a fixed threshold stays a constant in
// the package that uses it.
func TestSettingsInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var got []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, d := range af.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							got = append(got, af.Name.Name+"."+name+"."+n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	want := []string{
		"analyzer.ApplyConfig.Latency",
		"analyzer.ApplyConfig.Now",
		"analyzer.ApplyConfig.Sleep",
		"analyzer.Config.Source",
		"analyzer.Config.WorkloadDB",
		"core.Options.Alerts",
		"core.Options.Apply",
		"core.Options.DaemonInterval",
		"core.Options.Dir",
		"core.Options.Logf",
		"core.Options.PoolPages",
		"core.Options.Retention",
		"daemon.Config.Actions",
		"daemon.Config.Alerts",
		"daemon.Config.ApplyFailures",
		"daemon.Config.Interval",
		"daemon.Config.Logf",
		"daemon.Config.Mon",
		"daemon.Config.Now",
		"daemon.Config.Retention",
		"daemon.Config.Source",
		"daemon.Config.Target",
		"engine.Config.Dir",
		"engine.Config.Monitor",
		"engine.Config.PoolPages",
		"engine.Config.WALOpen",
		"monitor.Config.StatementCapacity",
		"optimizer.Options.Params",
		"optimizer.Options.WithVirtualIndexes",
		"storage.WALOptions.OpenFile",
	}
	if !slices.Equal(got, want) {
		t.Errorf("settings changed (%d, want %d):\n got %s\nwant %s", len(got), len(want),
			strings.Join(got, " "), strings.Join(want, " "))
	}
}
