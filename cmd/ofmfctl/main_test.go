package main

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/service"
	"ofmf/internal/sessions"
)

// TestComposeCycle builds ofmfctl and drives the composer of a testbed
// that requires sessions through it: without -login a command is
// refused; with it, stats, compose, compositions and decompose each exit
// 0 and print what the facade answered.
func TestComposeCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "ofmfctl")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	f, err := core.New(core.Config{Nodes: 2, Service: service.Config{
		Credentials: sessions.StaticCredentials(map[string]string{"admin": "pw"})}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// run returns ofmfctl's exit code and what it printed on stdout.
	run := func(login bool, args ...string) (int, string) {
		t.Helper()
		flags := []string{"-url", srv.URL, "-timeout", "2s"}
		if login {
			flags = append(flags, "-login", "admin:pw")
		}
		out, err := exec.Command(bin, append(flags, args...)...).Output()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), string(out)
		} else if err != nil {
			t.Fatal(err)
		}
		return 0, string(out)
	}
	decode := func(out string, v any) {
		t.Helper()
		if err := json.Unmarshal([]byte(out), v); err != nil {
			t.Fatalf("output %q: %v", out, err)
		}
	}

	if code, out := run(false, "stats"); code != 1 || out != "" {
		t.Errorf("stats without -login exited %d printing %q, want 1 and nothing", code, out)
	}
	var stats composer.Stats
	code, out := run(true, "stats")
	decode(out, &stats)
	if code != 0 || stats.TotalCores != 2*56 || stats.UsedCores != 0 {
		t.Errorf("stats exited %d: %+v", code, stats)
	}
	var comp composer.Composition
	code, out = run(true, "compose", `{"Name":"ctl","Cores":4,"FabricMemoryMiB":1024}`)
	decode(out, &comp)
	if code != 0 || comp.ID == "" || comp.SystemURI != service.SystemsURI.Append("ctl") {
		t.Fatalf("compose exited %d: %+v", code, comp)
	}
	var comps []composer.Composition
	code, out = run(true, "compositions")
	decode(out, &comps)
	if code != 0 || len(comps) != 1 || comps[0].ID != comp.ID {
		t.Errorf("compositions exited %d: %+v", code, comps)
	}
	if code, out := run(true, "decompose", comp.ID); code != 0 || strings.TrimSpace(out) != "decomposed "+comp.ID {
		t.Errorf("decompose exited %d printing %q", code, out)
	}
	if code, _ := run(true, "decompose", comp.ID); code != 1 {
		t.Errorf("a second decompose exited %d, want 1", code)
	}
	if n := len(f.Composer.Compositions()); n != 0 {
		t.Errorf("%d compositions left", n)
	}
}
