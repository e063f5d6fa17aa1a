package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicAPIOnly keeps the benchmark on the root package's exported
// API, so it compiles and stays comparable across internal refactors.
func TestPublicAPIOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		ast, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.Contains(path, "/internal") || strings.HasPrefix(path, "internal") {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}
