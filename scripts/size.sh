#!/bin/sh
# Prints the size of the simulator's Go code per package and in total:
# non-test lines (every line of every non-test .go file) and exported
# symbols (exported functions, types, variables and constants, plus
# exported methods on exported types). The benchmark module (bench/)
# and testdata/ trees are left out. Run from anywhere inside the repo:
#
#   sh scripts/size.sh
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/size.go" <<'GO'
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type size struct{ lines, syms int }

func exported(decl ast.Decl) int {
	n := 0
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return 0
		}
		if d.Recv == nil {
			return 1
		}
		t := d.Recv.List[0].Type
		if s, ok := t.(*ast.StarExpr); ok {
			t = s.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok {
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok && id.IsExported() {
			return 1
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch sp := s.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() {
					n++
				}
			case *ast.ValueSpec:
				for _, id := range sp.Names {
					if id.IsExported() {
						n++
					}
				}
			}
		}
	}
	return n
}

func main() {
	pkgs := map[string]*size{}
	err := filepath.Walk(".", func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		name := info.Name()
		if info.IsDir() {
			if p == "bench" || name == "testdata" || (p != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, src, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(p)
		s := pkgs[dir]
		if s == nil {
			s = &size{}
			pkgs[dir] = s
		}
		s.lines += bytes.Count(src, []byte("\n"))
		for _, d := range f.Decls {
			s.syms += exported(d)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dirs := make([]string, 0, len(pkgs))
	for d := range pkgs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var total size
	fmt.Printf("%-28s %8s %8s\n", "package", "lines", "exported")
	for _, d := range dirs {
		s := pkgs[d]
		fmt.Printf("%-28s %8d %8d\n", d, s.lines, s.syms)
		total.lines += s.lines
		total.syms += s.syms
	}
	fmt.Printf("%-28s %8d %8d\n", "total", total.lines, total.syms)
}
GO
cd "$root"
go run "$tmp/size.go"
