package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/spec"
)

// envelope mirrors the server's spec-mode /v1/explore success body.
type envelope struct {
	Variant *core.VariantWire `json:"variant,omitempty"`
}

// expectedBody computes, without the server, the body a spec-mode request
// with default params must be answered with: a direct core.Evaluate on a
// fresh session plus Variant.Wire and json.Marshal, as dtse.Server does.
// encode is the time spent in Wire and Marshal alone.
func expectedBody(specJSON []byte) (body []byte, encode time.Duration, err error) {
	sp, err := spec.ReadJSON(bytes.NewReader(specJSON))
	if err != nil {
		return nil, 0, err
	}
	ep := core.DefaultEvalParams()
	// The server's spec-mode defaults: onchip 4, threshold 64 Ki words,
	// frame period 1 s, no in-place, no interconnect.
	tech := *ep.Tech
	tech.OnChipMaxWords = 64 * 1024
	tech.FramePeriod = 1.0
	ep.Tech = &tech
	ep.SBD.OnChipMaxWords = tech.OnChipMaxWords
	ep.Assign.OnChipMaxWords = tech.OnChipMaxWords
	ep.OnChipCount = 4
	v, err := core.EvaluateContext(context.Background(), sp, specBudget, sp.Name, ep)
	if err != nil {
		return nil, 0, fmt.Errorf("evaluate %s: %w", sp.Name, err)
	}
	t := time.Now()
	b, err := json.Marshal(envelope{Variant: v.Wire()})
	encode = time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	return append(b, '\n'), encode, nil
}

// decodeRequest repeats the server's request decode on body: the envelope,
// spec.ReadJSON and the canonical WriteJSON that keys the cache.
func decodeRequest(body []byte) error {
	var req struct {
		Spec   json.RawMessage `json:"spec"`
		Budget uint64          `json:"budget"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	sp, err := spec.ReadJSON(bytes.NewReader(req.Spec))
	if err != nil {
		return err
	}
	var canon bytes.Buffer
	return sp.WriteJSON(&canon)
}
