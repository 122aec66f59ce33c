package mat

import (
	"errors"
	"fmt"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible dimensions")

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("mat: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// New returns a zero-initialized rows×cols matrix.
// It panics if rows or cols is negative; a 0×0 matrix is valid and useful as
// an empty placeholder.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		// Programmer error: every caller sizes a matrix by lengths of its data.
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// RawRow returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) RawRow(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
