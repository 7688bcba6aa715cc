// Package serde models Java object serialization over the simulated heap
// (§2, "Object Serialization"). Serialization traverses the object graph
// from a root, charging CPU per word and allocating real temporary objects
// in the young generation — the two costs the paper identifies: traversal
// effort proportional to the transitive closure, and temporary objects
// that raise GC pressure.
//
// Two serializers are modelled: the JDK's ObjectOutputStream (Java) and
// Kryo, the optimized library Spark recommends (the paper's baseline).
package serde

import (
	"time"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Kind selects a serializer implementation.
type Kind int

// Serializer implementations.
const (
	Java Kind = iota
	Kryo
)

// String names the serializer.
func (k Kind) String() string {
	if k == Java {
		return "java"
	}
	return "kryo"
}

// params per serializer kind.
type params struct {
	costPerWord time.Duration // CPU per serialized word
	tempRatio   float64       // temp-object bytes allocated per payload byte
	sizeRatio   float64       // serialized bytes per heap byte
	tempChunk   int           // temp buffer size in words
}

func paramsFor(k Kind) params {
	switch k {
	case Kryo:
		return params{costPerWord: 6 * time.Nanosecond, tempRatio: 0.35, sizeRatio: 0.7, tempChunk: 512}
	default: // Java
		return params{costPerWord: 14 * time.Nanosecond, tempRatio: 0.9, sizeRatio: 1.1, tempChunk: 512}
	}
}

// Serializer converts heap object graphs to and from byte streams.
type Serializer struct {
	rt  rt.Runtime
	p   params
	buf *vm.Class // temp byte-buffer class

	// Parallelism divides the CPU cost of S/D across executor threads
	// (Spark parallelizes S/D per partition; the paper measures up to 55%
	// S/D reduction from more threads, §7.6).
	Parallelism int

	// Stats.
	ObjectsSerialized   int64
	WordsSerialized     int64
	ObjectsDeserialized int64
	WordsDeserialized   int64
	TempBytesAllocated  int64
}

// New builds a serializer of the given kind over runtime r.
func New(r rt.Runtime, kind Kind) *Serializer {
	buf := r.Classes().ByName("serde.Buffer")
	if buf == nil {
		buf = r.Classes().MustPrimArray("serde.Buffer")
	}
	return &Serializer{rt: r, p: paramsFor(kind), buf: buf, Parallelism: 1}
}

// chargeCPU bills S/D CPU time divided across the parallel S/D threads.
func (s *Serializer) chargeCPU(words int64) {
	par := s.Parallelism
	if par < 1 {
		par = 1
	}
	s.rt.Clock().Charge(simclock.SerDesIO,
		time.Duration(words)*s.p.costPerWord/time.Duration(par))
}

// Measure walks the transitive closure of root, returning object and word
// counts without charging serialization cost (used to size blobs).
func (s *Serializer) Measure(root vm.Addr) (objects, words int64) {
	m := s.rt.Mem()
	visited := make(map[vm.Addr]bool)
	stack := []vm.Addr{root}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.IsNull() || visited[a] {
			continue
		}
		visited[a] = true
		objects++
		words += int64(m.SizeWords(a))
		n := m.NumRefs(a)
		for i := 0; i < n; i++ {
			if t := m.RefAt(a, i); !t.IsNull() && !visited[t] {
				stack = append(stack, t)
			}
		}
	}
	return objects, words
}

// Serialize converts the object graph under root into a byte stream,
// charging traversal CPU to S/D and allocating temporary buffers on the
// heap. It returns the serialized size in bytes.
func (s *Serializer) Serialize(root vm.Addr) (int64, error) {
	objects, words := s.Measure(root)
	s.ObjectsSerialized += objects
	s.WordsSerialized += words
	s.chargeCPU(words)
	if err := s.allocTemps(words); err != nil {
		return 0, err
	}
	return int64(float64(words*vm.WordSize) * s.p.sizeRatio), nil
}

// ChargeSerializeStream bills serialization of a stream of the given word
// count without a graph traversal (shuffle writes of freshly produced
// records).
func (s *Serializer) ChargeSerializeStream(words int64) error {
	s.WordsSerialized += words
	s.chargeCPU(words)
	return s.allocTemps(words)
}

// ChargeDeserialize bills the CPU and temp-object cost of reconstructing
// a graph of the given word count. The caller performs the actual object
// reconstruction (allocations) itself.
func (s *Serializer) ChargeDeserialize(objects, words int64) error {
	s.ObjectsDeserialized += objects
	s.WordsDeserialized += words
	s.chargeCPU(words)
	return s.allocTemps(words)
}

// allocTemps allocates (and immediately abandons) temporary buffer
// objects proportional to the payload — the serializer's real pressure on
// the young generation.
func (s *Serializer) allocTemps(payloadWords int64) error {
	tempWords := int64(float64(payloadWords) * s.p.tempRatio)
	for tempWords > 0 {
		chunk := int64(s.p.tempChunk)
		if chunk > tempWords {
			chunk = tempWords
		}
		if _, err := s.rt.AllocPrimArray(s.buf, int(chunk)); err != nil {
			return err
		}
		s.TempBytesAllocated += chunk * vm.WordSize
		tempWords -= chunk
	}
	return nil
}
