package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file is the content-addressing side of the Params schema. Runs are
// deterministic (the golden and invariance tests of internal/sim lock
// this), so engine-name + Params.Key() fully addresses a sim.Result — which
// is what lets internal/service serve repeated submissions from a cache
// instead of simulating again — and Params.SnapshotPrefix() addresses the
// boot a run starts with.

// address hashes a Resolved parameter set under a domain tag (so the two
// address spaces never collide) and a version tag (bump it when Resolved's
// rules change or a fix moves the Result some parameter set produces;
// stored entries then miss cold). The wire JSON is the
// canonical byte string: its tags are the stable schema, and Telemetry and
// Snapshots — which read a run or trade host time, never steer it — are
// already off the wire. A field added to Params is therefore hashed unless
// it is zeroed here.
func (p Params) address(domain string) string {
	// The two bit-invariant knobs: identical Result bytes at every value,
	// off included (TestFastEngine{ICache,Superblock}Invariance).
	p.ICacheEntries, p.SuperblockLen = 0, 0
	raw, err := json.Marshal(p)
	if err != nil {
		// Params' wire form is a flat object of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("sim: params encoding: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(domain + "\x00v5\x00"))
	h.Write(raw)
	if p.Program != nil {
		// Only the parts the FM loads (base, entry, code bytes) reach the
		// digest — symbol tables are assembler metadata.
		binary.Write(h, binary.LittleEndian, uint64(p.Program.Base))
		binary.Write(h, binary.LittleEndian, uint64(p.Program.Entry))
		h.Write(p.Program.Code)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Key returns the content address of p: two Params that configure the
// identical simulation — spelled with explicit defaults or left zero,
// differing only in dead or bit-invariant knobs or in instrumentation —
// return the same key; anything that can move a Result byte changes it.
func (p Params) Key() string { return p.Resolved().address("key") }

// DecodeParams is the strict JSON boundary for Params: unknown fields and
// trailing data are rejected, so a typo'd knob in an API request fails loud
// instead of silently running the default simulation. The zero-length input
// decodes to the zero Params (engine defaults).
func DecodeParams(data []byte) (Params, error) {
	var p Params
	if len(bytes.TrimSpace(data)) == 0 {
		return p, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Params{}, fmt.Errorf("sim: decode params: %w", err)
	}
	if dec.More() {
		return Params{}, fmt.Errorf("sim: decode params: trailing data after JSON object")
	}
	return p, nil
}
