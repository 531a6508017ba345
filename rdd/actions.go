package rdd

import (
	"errors"
	"fmt"
)

// ErrEmpty is returned by Reduce on an empty RDD.
var ErrEmpty = errors.New("rdd: empty collection")

// Collect returns all elements, concatenated in partition order.
func (r *RDD[T]) Collect() ([]T, error) {
	var out []T
	err := r.n.runJob("collect", func(_ int, chunks []any) error {
		for _, ch := range chunks {
			out = append(out, asChunk[T](ch)...)
		}
		return nil
	})
	return out, err
}

// Count returns the number of elements.
func (r *RDD[T]) Count() (int64, error) {
	var n int64
	err := r.n.runJob("count", func(_ int, chunks []any) error {
		n += int64(chunkRecords[T](chunks))
		return nil
	})
	return n, err
}

// Reduce combines all elements with the associative function f.
func (r *RDD[T]) Reduce(f func(T, T) T) (T, error) {
	var acc T
	have := false
	err := r.n.runJob("reduce", func(_ int, chunks []any) error {
		for _, ch := range chunks {
			for _, v := range asChunk[T](ch) {
				if !have {
					acc = v
					have = true
					continue
				}
				acc = f(acc, v)
			}
		}
		return nil
	})
	if err != nil {
		return acc, err
	}
	if !have {
		return acc, ErrEmpty
	}
	return acc, nil
}

// CollectAsMap returns pair elements as a map (later pairs win on
// duplicate keys).
func CollectAsMap[K comparable, V any](r *RDD[Pair[K, V]]) (map[K]V, error) {
	out := make(map[K]V)
	err := r.n.runJob("collectAsMap", func(_ int, chunks []any) error {
		for _, ch := range chunks {
			for _, p := range asChunk[Pair[K, V]](ch) {
				out[p.Key] = p.Value
			}
		}
		return nil
	})
	return out, err
}

// Sum adds all elements of a numeric RDD; an empty RDD sums to 0.
func Sum[T int | int32 | int64 | float32 | float64](r *RDD[T]) (T, error) {
	var acc T
	err := r.n.runJob("sum", func(_ int, chunks []any) error {
		for _, ch := range chunks {
			for _, v := range asChunk[T](ch) {
				acc += v
			}
		}
		return nil
	})
	return acc, err
}

// String renders a short description.
func (r *RDD[T]) String() string {
	var zero T
	return fmt.Sprintf("RDD[%T]{id=%d parts=%d}", zero, r.n.id, r.n.parts)
}
