package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runProcs is the number of processes a run spreads its repetitions
// over, started one after another, each for an equal share of the run
// and at least once per kind of repetition. Host times differ by
// several percent between processes even for the same seed and binary,
// while repetitions within a process agree more closely: where the
// heap, stacks and mailboxes land in physical memory is fixed per
// process. Medians are taken over the repetitions of all processes. The
// children print their repetitions as JSON lines.
const runProcs = 4

// repLine is one repetition on a child's standard output. JSON numbers
// round-trip float64 values exactly, so the determinism guard compares
// repetitions of different processes bit for bit.
type repLine struct {
	Mode      mode               `json:"mode"`
	Host      map[string]float64 `json:"host"`
	Model     map[string]float64 `json:"model"`
	Layer     map[string]float64 `json:"layer"`
	Pin       string             `json:"pin"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"`
	Notes     []string           `json:"notes"`
}

// childLine is one line of a child's output: a repetition, or the CPU
// samples of its profiled repetitions.
type childLine struct {
	Rep *repLine         `json:"rep,omitempty"`
	CPU map[string]int64 `json:"cpu,omitempty"`
}

// emitChild runs a child's share of the repetitions and prints them.
func emitChild(w *benchWorkload, seed int64, secs float64, traced bool) error {
	all, cpu, err := repeat(w, seed, secs, traced)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for _, r := range all {
		l := repLine{r.mode, r.host, r.model, r.layer, r.pin, r.attempted, r.failed, r.samples, r.notes}
		if err := enc.Encode(childLine{Rep: &l}); err != nil {
			return err
		}
	}
	return enc.Encode(childLine{CPU: cpu})
}

// runChildren runs runProcs child processes of this binary one after
// another, each for secs/runProcs seconds, and collects their
// repetitions.
func runChildren(w *benchWorkload, seed int64, secs float64, traced bool) ([]*rep, map[string]int64, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	var all []*rep
	cpu := map[string]int64{}
	for i := 0; i < runProcs; i++ {
		cmd := exec.Command(os.Args[0], "--child", "--workload", w.name,
			"--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(secs/runProcs, 'g', -1, 64),
			"--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("process %d: %w", i, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var l childLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				return nil, nil, fmt.Errorf("process %d output: %w", i, err)
			}
			if l.Rep != nil {
				all = append(all, &rep{mode: l.Rep.Mode, host: l.Rep.Host, model: l.Rep.Model,
					layer: l.Rep.Layer, pin: l.Rep.Pin, attempted: l.Rep.Attempted,
					failed: l.Rep.Failed, samples: l.Rep.Samples, notes: l.Rep.Notes})
			}
			for k, v := range l.CPU {
				cpu[k] += v
			}
		}
		if err := sc.Err(); err != nil {
			return nil, nil, fmt.Errorf("process %d output: %w", i, err)
		}
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("no repetitions")
	}
	return all, cpu, nil
}
