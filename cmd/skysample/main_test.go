package main

import (
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	_ = w.Close()
	os.Stdout = old
	buf := new(strings.Builder)
	tmp := make([]byte, 4096)
	for {
		n, rerr := r.Read(tmp)
		buf.Write(tmp[:n])
		if rerr != nil {
			break
		}
	}
	return buf.String(), runErr
}

func TestQuickCharacterization(t *testing.T) {
	out, err := capture(t, []string{"-az", "eu-north-1a", "-polls", "2", "-truth"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"poll", "characterization of eu-north-1a", "ground truth", "APE"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownZoneRejected(t *testing.T) {
	if _, err := capture(t, []string{"-az", "atlantis-1a"}); err == nil {
		t.Fatal("unknown AZ accepted")
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-zorp"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestNegativePollsRejected guards the poll count: a negative -polls once
// fell through to the saturating characterization, up to 200 polls.
func TestNegativePollsRejected(t *testing.T) {
	out, err := capture(t, []string{"-az", "eu-north-1a", "-polls", "-3"})
	if err == nil || !strings.Contains(err.Error(), "-polls -3") {
		t.Fatalf("-polls -3: err %v", err)
	}
	if out != "" {
		t.Errorf("-polls -3 printed a characterization:\n%s", out)
	}
}
