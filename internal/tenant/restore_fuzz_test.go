package tenant_test

// The restore fuzzer: a valid checkpoint with one field mutated must be
// refused, with ErrMismatch from the restore or with ErrStuck from a round
// (the stuck-core signal TestStuckDetection pins for a live count that
// drifted from the tenants' budgets), or restore into a machine that runs
// to Done within the round budget, scrubs clean, and ends on the same
// state when restored a second time: reflect.DeepEqual, and so the same
// bytes, since a state encodes deterministically. A panic, a stall or a
// scrub violation fails it.
// FuzzRestoreMachine drives the mutator from fuzz bytes; the seeded loop
// in TestRestoreMachineMutations runs the same mutator over every mutable
// field of every start state in tier-1.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/pt"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// restoreStart is one valid checkpoint the mutator starts from.
type restoreStart struct {
	name  string
	cfg   tenant.Config
	state *tenant.MachineState // the machine's State; never mutated
	paths []string             // every mutable field path of the state, in walk order

	// One gob stream per start carries every copy of its states, so the
	// type information is sent and compiled once.
	mu  sync.Mutex
	buf bytes.Buffer
	enc *gob.Encoder
	dec *gob.Decoder
}

// checkpointed returns what a checkpoint of st decodes to.
func (s *restoreStart) checkpointed(st *tenant.MachineState) *tenant.MachineState {
	var out tenant.MachineState
	if err := s.enc.Encode(st); err != nil {
		panic(fmt.Sprintf("encoding a machine state: %v", err))
	}
	if err := s.dec.Decode(&out); err != nil {
		panic(fmt.Sprintf("decoding a machine state: %v", err))
	}
	return &out
}

var (
	startsOnce    sync.Once
	restoreStarts []*restoreStart
	startsErr     error
)

// startStates captures corpusConfig after one and two rounds and the
// mid-resize config after four, for every organization. No tenant run
// unmaps a page, so no captured cluster slab has a free list; for the
// hashed organizations one more start is corpusConfig after two rounds
// with a freed cluster added to its slab, as an unmap leaves one.
func startStates(t testing.TB) []*restoreStart {
	t.Helper()
	startsOnce.Do(func() {
		for _, org := range []sim.Org{sim.Radix, sim.ECPT, sim.MEHPT} {
			for _, s := range []struct {
				name   string
				cfg    tenant.Config
				rounds int
				freed  bool
			}{
				{"corpus/1", corpusConfig(org), 1, false},
				{"corpus/2", corpusConfig(org), 2, false},
				{"resize/4", tenant.ResizeConfig(org), 4, false},
				{"freed/2", corpusConfig(org), 2, true},
			} {
				if s.freed && org == sim.Radix {
					continue
				}
				m, err := tenant.NewMachine(s.cfg)
				for i := 0; err == nil && i < s.rounds; i++ {
					err = m.StepRound()
				}
				if err != nil {
					startsErr = fmt.Errorf("%v %s: %w", org, s.name, err)
					return
				}
				st := m.State()
				if s.freed {
					var sl *pt.SlabState
					if org == sim.MEHPT {
						sl = &st.Procs[0].MEHPT.Slab
					} else {
						sl = &st.Procs[0].ECPT.Slab
					}
					sl.Clusters = append(sl.Clusters, pt.Cluster{})
					sl.Free = append(sl.Free, uint64(len(sl.Clusters)-1))
				}
				var paths []string
				seen := map[string]bool{}
				walkState(reflect.ValueOf(st).Elem(), "", "", func(path string, _ reflect.Value) {
					if !seen[path] {
						seen[path] = true
						paths = append(paths, path)
					}
				})
				rs := &restoreStart{name: org.String() + "/" + s.name, cfg: s.cfg, state: st, paths: paths}
				rs.enc, rs.dec = gob.NewEncoder(&rs.buf), gob.NewDecoder(&rs.buf)
				restoreStarts = append(restoreStarts, rs)
			}
		}
	})
	if startsErr != nil {
		t.Fatal(startsErr)
	}
	return restoreStarts
}

// walkState calls visit for every exported integer and slice under v, with
// its field path: field names joined by dots, "[]" for an element. Only
// values on the way to target are visited when target is not empty.
func walkState(v reflect.Value, path, target string, visit func(string, reflect.Value)) {
	if target != "" && !strings.HasPrefix(target, path) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			walkState(v.Elem(), path, target, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				walkState(v.Field(i), path+"."+f.Name, target, visit)
			}
		}
	case reflect.Slice:
		visit(path, v)
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkState(v.Index(i), path+"[]", target, visit)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		visit(path, v)
	}
}

// intOps and sliceOps count the mutations of an integer (set to 0, 1, -1,
// its value plus or minus one, 2^40 or its maximum) and of a slice
// (truncate, duplicate an element, swap two elements).
const (
	intOps   = 7
	sliceOps = 3
)

// mutation is one decoded fuzz input: which start, which field path, which
// of the path's values, which operation, and the operation's argument.
type mutation struct {
	start, path, op int
	elem, arg       uint32
}

// decodeMutation reads a mutation from fuzz bytes, zero-padding a short
// input.
func decodeMutation(data []byte) mutation {
	var b [12]byte
	copy(b[:], data)
	return mutation{
		start: int(b[0]),
		path:  int(binary.LittleEndian.Uint16(b[1:])),
		elem:  binary.LittleEndian.Uint32(b[3:]),
		op:    int(b[7]),
		arg:   binary.LittleEndian.Uint32(b[8:]),
	}
}

// apply mutates st per mu and describes the mutation, or returns "" when
// the chosen field holds nothing to mutate.
func (mu mutation) apply(s *restoreStart, st *tenant.MachineState) string {
	path := s.paths[mu.path%len(s.paths)]
	var vals []reflect.Value
	walkState(reflect.ValueOf(st).Elem(), "", path, func(p string, v reflect.Value) {
		if p == path {
			vals = append(vals, v)
		}
	})
	if len(vals) == 0 {
		return ""
	}
	idx := int(mu.elem % uint32(len(vals)))
	v := vals[idx]
	where := fmt.Sprintf("%s %s#%d", s.name, path, idx)
	if v.Kind() == reflect.Slice {
		n := v.Len()
		if n == 0 {
			return ""
		}
		i, j := int(mu.elem/uint32(len(vals)))%n, int(mu.arg)%n
		switch mu.op % sliceOps {
		case 0:
			v.Set(v.Slice(0, j))
			return fmt.Sprintf("%s truncated from %d to %d", where, n, j)
		case 1:
			dup := reflect.MakeSlice(v.Type(), 0, n+1)
			dup = reflect.AppendSlice(dup, v.Slice(0, i+1))
			dup = reflect.AppendSlice(dup, v.Slice(i, n))
			v.Set(dup)
			return fmt.Sprintf("%s element %d of %d duplicated", where, i, n)
		default:
			if i == j {
				return ""
			}
			a, b := reflect.New(v.Type().Elem()).Elem(), v.Index(j)
			a.Set(v.Index(i))
			v.Index(i).Set(b)
			v.Index(j).Set(a)
			return fmt.Sprintf("%s elements %d and %d of %d swapped", where, i, j, n)
		}
	}
	if v.CanInt() {
		old := v.Int()
		bits := v.Type().Bits()
		maxInt := int64(math.MaxInt64 >> (64 - bits))
		x := [intOps]int64{0, 1, -1, old + 1, old - 1, 1 << 40, maxInt}[mu.op%intOps]
		if v.OverflowInt(x) {
			x = maxInt
		}
		v.SetInt(x)
		return fmt.Sprintf("%s set from %d to %d", where, old, x)
	}
	old := v.Uint()
	maxUint := uint64(math.MaxUint64 >> (64 - v.Type().Bits()))
	x := [intOps]uint64{0, 1, maxUint, old + 1, old - 1, 1 << 40, maxUint}[mu.op%intOps]
	if v.OverflowUint(x) {
		x &= maxUint
	}
	v.SetUint(x)
	return fmt.Sprintf("%s set from %d to %d", where, old, x)
}

// restoreAndRun restores st under cfg and steps it to Done. It returns
// the finished machine; a nil machine and error for a snapshot the machine
// refused (ErrMismatch from the restore, or ErrStuck, the stuck-core
// signal of a drifted live count, from a round); or an error for any
// other outcome: another error, a panic, or a run past the round budget.
func restoreAndRun(cfg tenant.Config, st *tenant.MachineState) (m *tenant.Machine, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	m, err = tenant.RestoreMachine(cfg, st)
	if errors.Is(err, tenant.ErrMismatch) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("restore error outside ErrMismatch: %w", err)
	}
	// Every live tenant runs up to a quantum of its budget each round, and
	// a valid state leaves no tenant more than its budget.
	for rounds := cfg.AccessesPerProc/cfg.Quantum + 2; !m.Done(); rounds-- {
		if rounds == 0 {
			return nil, errors.New("stall: not done within the round budget")
		}
		if err := m.StepRound(); errors.Is(err, tenant.ErrStuck) {
			return nil, nil
		} else if err != nil {
			return nil, fmt.Errorf("StepRound: %w", err)
		}
	}
	return m, nil
}

// runMutation applies mu to a checkpointed copy of its start state and
// holds the result to the restore contract. The returned description is
// empty when mu mutates nothing.
func runMutation(t testing.TB, mu mutation) (string, error) {
	starts := startStates(t)
	s := starts[mu.start%len(starts)]
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.checkpointed(s.state)
	what := mu.apply(s, st)
	if what == "" {
		return "", nil
	}
	m, err := restoreAndRun(s.cfg, s.checkpointed(st))
	if m == nil {
		return what, err
	}
	if vs := scrub.Machine(m); len(vs) != 0 {
		return what, fmt.Errorf("finished machine scrubs dirty: %v", vs)
	}
	again, err := restoreAndRun(s.cfg, s.checkpointed(st))
	if again == nil {
		return what, fmt.Errorf("second restore of the same state: %v", err)
	}
	if !reflect.DeepEqual(m.State(), again.State()) {
		return what, errors.New("a second restore of the same state ended on a different state")
	}
	return what, nil
}

func FuzzRestoreMachine(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 12)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if what, err := runMutation(t, decodeMutation(data)); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	})
}

// TestRestoreMachineMutations runs the fuzzer's mutator in tier-1: one
// mutation of every field path of every start state. The operation cycles
// with the start, so a path every start has meets every operation; the
// value within the path and the operation's argument come from a fixed
// seed. Each unmutated start must first restore into a machine that
// re-captures it exactly.
func TestRestoreMachineMutations(t *testing.T) {
	starts := startStates(t)
	rng := rand.New(rand.NewSource(29))
	ran := 0
	for si, s := range starts {
		m, err := tenant.RestoreMachine(s.cfg, s.checkpointed(s.state))
		if err != nil {
			t.Errorf("%s: unmutated start: %v", s.name, err)
		} else if !reflect.DeepEqual(m.State(), s.state) {
			t.Errorf("%s: the unmutated start restores into a machine with another state", s.name)
		}
		for pi, path := range s.paths {
			h := fnv.New32a()
			h.Write([]byte(path))
			mu := mutation{start: si, path: pi, op: si + int(h.Sum32()), elem: rng.Uint32(), arg: rng.Uint32()}
			what, err := runMutation(t, mu)
			if what != "" {
				ran++
			}
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}
	}
	t.Logf("%d mutations", ran)
}
