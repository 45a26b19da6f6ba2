package main

// Correctness checks that run after the clock stops: a fixed sample of
// cells fetched from the fleet must equal in-process CompareRequest.Run
// byte for byte, and a digest over the leading sweeps' results must repeat
// for a seed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cdcs"
)

// compareEnvelope mirrors the /v1/compare response body.
type compareEnvelope struct {
	Hash       string              `json:"hash"`
	Request    cdcs.CompareRequest `json:"request"`
	Comparison *cdcs.Comparison    `json:"comparison"`
}

// sampleCells picks the first and last cell of every mesh size's block of
// a sweep (cells are ordered mesh-outermost), so each mesh size and both
// ends of the inner axes are covered.
func sampleCells(cells []cdcs.SweepCellResult) []cdcs.SweepCellResult {
	var out []cdcs.SweepCellResult
	for i, c := range cells {
		first := i == 0 || meshOf(cells[i-1]) != meshOf(c)
		last := i == len(cells)-1 || meshOf(cells[i+1]) != meshOf(c)
		if first || last {
			out = append(out, c)
		}
	}
	return out
}

func meshOf(c cdcs.SweepCellResult) [2]int {
	return [2]int{c.Request.Config.MeshWidth, c.Request.Config.MeshHeight}
}

// verifySample checks the sample of res against in-process runs: the
// fleet's /v1/compare body and the sweep's parsed comparison must both
// match. It returns how many cells it checked and a description of each
// mismatch.
func verifySample(f *fleet, res *cdcs.SweepResult) (int, []string, error) {
	client := &http.Client{Timeout: 5 * time.Minute}
	defer client.CloseIdleConnections()
	sample := sampleCells(res.Cells)
	var bad []string
	for k, cell := range sample {
		cmp, err := cell.Request.Run(cdcs.RunOptions{})
		if err != nil {
			return 0, nil, fmt.Errorf("in-process run of cell %d: %w", cell.Index, err)
		}
		want, err := json.Marshal(compareEnvelope{Hash: cell.Hash, Request: cell.Request, Comparison: cmp})
		if err != nil {
			return 0, nil, err
		}
		reqBody, err := json.Marshal(cell.Request)
		if err != nil {
			return 0, nil, err
		}
		url := f.urls()[k%len(f.reps)]
		resp, err := client.Post(url+"/v1/compare", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return 0, nil, fmt.Errorf("fetch cell %d: %w", cell.Index, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, fmt.Errorf("fetch cell %d: %w", cell.Index, err)
		}
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("cell %d (%s): fleet body differs from in-process run", cell.Index, cell.Hash[:12]))
		}
		swept, err := json.Marshal(cell.Comparison)
		if err != nil {
			return 0, nil, err
		}
		inproc, err := json.Marshal(cmp)
		if err != nil {
			return 0, nil, err
		}
		if !bytes.Equal(swept, inproc) {
			bad = append(bad, fmt.Sprintf("cell %d (%s): swept comparison differs from in-process run", cell.Index, cell.Hash[:12]))
		}
	}
	return len(sample), bad, nil
}

// digest hashes the results of the first n sweeps. A failed sweep among
// them makes the digest "incomplete", which never matches.
func digest(sweeps []*cdcs.SweepResult, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		if i >= len(sweeps) || sweeps[i] == nil {
			return "incomplete"
		}
		b, err := json.Marshal(sweeps[i])
		if err != nil {
			return "incomplete"
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
