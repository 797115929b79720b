package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as the command itself:
// with HOMONYMS_RUN_MAIN set it runs main with "-h" instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("HOMONYMS_RUN_MAIN") != "" {
		os.Args = []string{os.Args[0], "-h"}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStateRepHelp pins the -staterep help text to the live state
// representations: the retired "concurrent" name is not offered.
func TestStateRepHelp(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HOMONYMS_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	help := string(out)
	i := strings.Index(help, "-staterep")
	if i < 0 {
		t.Fatalf("help lacks -staterep:\n%s", help)
	}
	line := help[i:]
	if j := strings.Index(line, "\n  -"); j >= 0 {
		line = line[:j]
	}
	if !strings.Contains(line, "concrete | counting") || strings.Contains(line, "concurrent") {
		t.Fatalf("-staterep help must list only concrete | counting:\n%s", line)
	}
}
