package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"tvgwait/internal/engine"
	"tvgwait/internal/tvg"
)

// request is one HTTP request of a plan, with its body already encoded.
type request struct {
	path string
	body []byte
	// stream names the live stream an ingest or stream read targets.
	stream string
	// ingest marks POST /contacts.
	ingest bool
	// due is the request's send time relative to the window's start
	// (open loop only).
	due time.Duration
	// set numbers the distinct (graph, seed) contact sets of generated
	// specs, so the traced replay can tell a set's first build from a
	// later lookup; -1 for stream requests.
	set int32
}

// plan is a workload's whole seeded request sequence, built before the
// window opens so the load goroutines only send.
type plan struct {
	workload string
	reqs     []request // distinct requests
	seq      [][]int32 // per client: indices into reqs, in send order
	openLoop bool
	// warm lists requests sent once before the window.
	warm []int32
	// live-ingest: the streams the data directory is pre-filled with
	// and the extra tvgserve flags.
	streams    []streamShape
	serverArgs []string

	sets map[string]int32 // contact-set key → request.set
}

// add appends r to client c's sequence (c < 0: to no sequence) and
// returns its index. setKey identifies r's generated contact set ("" for
// stream requests).
func (p *plan) add(c int, r request, setKey string) int32 {
	r.set = -1
	if setKey != "" {
		if p.sets == nil {
			p.sets = map[string]int32{}
		}
		id, ok := p.sets[setKey]
		if !ok {
			id = int32(len(p.sets))
			p.sets[setKey] = id
		}
		r.set = id
	}
	i := int32(len(p.reqs))
	p.reqs = append(p.reqs, r)
	if c >= 0 {
		p.seq[c] = append(p.seq[c], i)
	}
	return i
}

// clients is the load generator's concurrency: one goroutine and one
// connection each, at most nproc (= 2 on the reference host).
const clients = 2

// newPlan builds the named workload's plan for a window of the given
// length.
func newPlan(name string, seed int64, window time.Duration) (*plan, error) {
	switch name {
	case "spec-cold":
		return coldPlan(seed, window), nil
	case "spec-hot":
		return hotPlan(seed, window), nil
	case "live-ingest":
		return ingestPlan(seed, window), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want spec-cold, spec-hot or live-ingest)", name)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are encoded here
	}
	return b
}

// coldShapes are spec-cold's generator shapes. Node counts sit on both
// sides of the sweeps' automatic width choice (<= 128 nodes sweep one lane
// word on a 2-worker host, >= 256 sweep several); the markov parameters
// come from the sparse regime, where low rungs never connect, and the
// persistent-edge regime, where sweeps exit early; the larger shapes use
// skip sampling, which generates in O(contacts).
var coldShapes = []engine.GraphSpec{
	{Model: "markov", Nodes: 64, Birth: 0.01, Death: 0.6, Horizon: 200},
	{Model: "markov", Nodes: 96, Birth: 0.01, Death: 0.1, Horizon: 30},
	{Model: "markov", Nodes: 128, Birth: 0.004, Death: 0.4, Horizon: 150, SkipSampling: true},
	{Model: "markov", Nodes: 256, Birth: 0.001, Death: 0.5, Horizon: 100, SkipSampling: true},
	{Model: "markov", Nodes: 256, Birth: 0.001, Death: 0.05, Horizon: 30, SkipSampling: true},
}

// coldDeck is one cycle of spec-cold's endpoint mix: per shape, 3
// /metrics, 3 /spectrum, 2 /simulate and 2 /journey requests.
var coldDeck = []string{"/metrics", "/metrics", "/metrics", "/spectrum", "/spectrum", "/spectrum",
	"/simulate", "/simulate", "/journey", "/journey"}

// coldPerClientRate bounds how many requests a spec-cold client could
// send per second; the plan holds that many so it cannot run dry.
const coldPerClientRate = 400

// coldPlan: every request is a (spec, seed) never seen before in the run,
// so each pays for generation and then a sweep, a flood or a search.
func coldPlan(seed int64, window time.Duration) *plan {
	p := &plan{workload: "spec-cold", seq: make([][]int32, clients)}
	per := int(window.Seconds()*coldPerClientRate) + 1
	type card struct {
		shape int
		path  string
	}
	var deck []card
	for s := range coldShapes {
		for _, path := range coldDeck {
			deck = append(deck, card{s, path})
		}
	}
	// The deck order is the same for every seed: the seed draws the
	// graphs and journey endpoints, while the sequence of shapes and
	// endpoints, which decides what two concurrent requests contend
	// over, stays fixed, so runs with different seeds stay comparable.
	order := rand.New(rand.NewSource(1))
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		for k := 0; k < per; k++ {
			if k%len(deck) == 0 {
				order.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			cd := deck[k%len(deck)]
			// Distinct generator seeds, hashed from (seed, client, position)
			// and kept under 2^53 so JSON numbers round-trip exactly.
			gseed := int64(splitmix64(uint64(seed)<<32|uint64(c)<<28|uint64(k)) >> 11)
			p.add(c, specRequest(cd.path, coldShapes[cd.shape], gseed, rng, 8), setKey(coldShapes[cd.shape], gseed))
		}
	}
	return p
}

// splitmix64 is the SplitMix64 finalizer, a well-mixed bijection on
// 64-bit words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// setKey identifies the contact set engine.ContactSet(g, gseed) returns.
func setKey(g engine.GraphSpec, gseed int64) string {
	return fmt.Sprintf("%+v|%d", g, gseed)
}

// specRequest encodes one generated-spec request for path.
func specRequest(path string, g engine.GraphSpec, gseed int64, rng *rand.Rand, messages int) request {
	var body any
	switch path {
	case "/metrics":
		body = engine.MetricsRequest{Graph: g, Seed: gseed, Modes: []string{"nowait", "wait:2", "wait:8", "wait"}}
	case "/spectrum":
		body = engine.SpectrumRequest{Graph: g, Seed: gseed}
	case "/simulate":
		// One replicate: replicate 0 keeps the base seed, so the contact
		// set is exactly engine.ContactSet(g, gseed).
		body = engine.ScenarioSpec{Graph: g, Seed: gseed, Modes: []string{"nowait", "wait:4", "wait"},
			Messages: messages, Replicates: 1}
	case "/journey":
		src := rng.Intn(g.Nodes)
		dst := (src + 1 + rng.Intn(g.Nodes-1)) % g.Nodes
		kind := []string{"foremost", "minhop", "fastest"}[rng.Intn(3)]
		body = engine.JourneyRequest{Graph: g, Seed: gseed, Mode: "wait:4", Kind: kind,
			Src: tvg.Node(src), Dst: tvg.Node(dst)}
	default:
		panic("unknown spec path " + path)
	}
	return request{path: path, body: mustJSON(body)}
}

// hotShapes are spec-hot's small shapes: the point is that after the
// warm-up every sweep and generation is cached, so they only need to be
// distinct.
var hotShapes = []engine.GraphSpec{
	{Model: "markov", Nodes: 24, Birth: 0.05, Death: 0.5, Horizon: 60},
	{Model: "markov", Nodes: 32, Birth: 0.02, Death: 0.3, Horizon: 80},
	{Model: "markov", Nodes: 32, Birth: 0.05, Death: 0.4, Horizon: 40, SkipSampling: true},
	{Model: "markov", Nodes: 20, Birth: 0.01, Death: 0.5, Horizon: 100},
}

// hotPerClientRate bounds spec-hot's per-client request rate (the plan
// holds indices, not bodies, so a generous bound is cheap).
const hotPerClientRate = 12000

// hotPlan: a pool of 24 requests (4 shapes × 2 seeds × 4 endpoints)
// drawn with Zipf-skewed popularity. Pool entry i has popularity rank i
// for every seed, so the endpoint mix is the same in every run; the seed
// draws the graphs, the journey endpoints and the request order. Cached
// /metrics and /spectrum answers and sub-millisecond journey searches
// take the popular ranks. Single-replicate simulations take the last four
// (3% of requests): the engine never caches their floods, so a larger
// share would make flooding, not the fixed per-request cost this
// workload exists to measure, take most of the server's time.
func hotPlan(seed int64, window time.Duration) *plan {
	p := &plan{workload: "spec-hot", seq: make([][]int32, clients)}
	rng := rand.New(rand.NewSource(seed))
	paths := []string{"/metrics", "/spectrum", "/metrics", "/journey", "/spectrum"}
	for i := 0; i < 24; i++ {
		g := hotShapes[i%len(hotShapes)]
		gseed := int64(splitmix64(uint64(seed)<<8|uint64(i/len(hotShapes)%2)) >> 11)
		path := "/simulate"
		if i < 20 {
			path = paths[i%len(paths)]
		}
		p.warm = append(p.warm, p.add(-1, specRequest(path, g, gseed, rng, 2), setKey(g, gseed)))
	}
	per := int(window.Seconds()*hotPerClientRate) + 1
	for c := 0; c < clients; c++ {
		crng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		z := rand.NewZipf(crng, 1.2, 1, uint64(len(p.reqs)-1))
		p.seq[c] = make([]int32, per)
		for k := range p.seq[c] {
			p.seq[c][k] = int32(z.Uint64())
		}
	}
	return p
}
