package tasklib

import (
	"fmt"

	"vdce/internal/linalg"
	"vdce/internal/repository"
)

// defaultN is the nominal problem size the static task-performance
// parameters are calibrated for. Actual inputs may be any size; the
// parameters exist so the scheduler can rank hosts, not to be exact.
const defaultN = 256

// registerMatrixLibrary adds the matrix-algebra library — the menu
// holding Fig. 1's LU_Decomposition and Matrix_Multiplication tasks.
func registerMatrixLibrary(reg func(Spec)) {
	nOps := float64(defaultN)

	reg(Spec{
		Name: "Matrix_Generate", Library: "matrix", InPorts: 0, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * nOps,
			RequiredMemBytes: defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			n, err := c.IntArg("n", defaultN)
			if err != nil {
				return nil, err
			}
			seed, err := c.Int64Arg("seed", 1)
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("tasklib: Matrix_Generate n=%d", n)
			}
			if c.Args["kind"] == "general" {
				return []Value{linalg.RandomMatrix(n, n, seed)}, nil
			}
			return []Value{linalg.RandomDiagonallyDominant(n, seed)}, nil
		},
	})

	reg(Spec{
		Name: "Vector_Generate", Library: "matrix", InPorts: 0, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps,
			RequiredMemBytes: defaultN * 8,
			BaseTime:         baseTimeFor(nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			n, err := c.IntArg("n", defaultN)
			if err != nil {
				return nil, err
			}
			seed, err := c.Int64Arg("seed", 2)
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("tasklib: Vector_Generate n=%d", n)
			}
			return []Value{linalg.RandomVector(n, seed)}, nil
		},
	})

	reg(Spec{
		Name: "LU_Decomposition", Library: "matrix", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     2.0 / 3.0 * nOps * nOps * nOps,
			CommunicationBytes: defaultN * defaultN * 8,
			RequiredMemBytes:   2 * defaultN * defaultN * 8,
			BaseTime:           baseTimeFor(2.0 / 3.0 * nOps * nOps * nOps),
			Parallelizable:     true,
			SerialFraction:     0.15,
		},
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			lu, err := linalg.Decompose(a)
			if err != nil {
				return nil, err
			}
			return []Value{&LUResult{L: lu.L, U: lu.U, Perm: lu.Perm, Swaps: lu.Swaps}}, nil
		},
	})

	reg(Spec{
		Name: "Cholesky_Decomposition", Library: "matrix", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     1.0 / 3.0 * nOps * nOps * nOps,
			CommunicationBytes: defaultN * defaultN * 8,
			RequiredMemBytes:   2 * defaultN * defaultN * 8,
			BaseTime:           baseTimeFor(1.0 / 3.0 * nOps * nOps * nOps),
			Parallelizable:     true,
			SerialFraction:     0.15,
		},
		// Produces the lower factor L with A = L*Lt for SPD inputs.
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			l, err := linalg.Cholesky(a)
			if err != nil {
				return nil, err
			}
			return []Value{l}, nil
		},
	})

	reg(Spec{
		Name: "SPD_Generate", Library: "matrix", InPorts: 0, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   2 * nOps * nOps * nOps,
			RequiredMemBytes: 2 * defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(2 * nOps * nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			n, err := c.IntArg("n", defaultN)
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("tasklib: SPD_Generate n=%d", n)
			}
			seed, err := c.Int64Arg("seed", 1)
			if err != nil {
				return nil, err
			}
			return []Value{linalg.RandomSPD(n, seed)}, nil
		},
	})

	reg(Spec{
		Name: "Forward_Substitution", Library: "matrix", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * nOps,
			RequiredMemBytes: defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			luv, err := luInput(c, 0)
			if err != nil {
				return nil, err
			}
			b, err := c.Vector(1)
			if err != nil {
				return nil, err
			}
			if len(b) != len(luv.Perm) {
				return nil, fmt.Errorf("tasklib: Forward_Substitution b has %d entries for %d-row system", len(b), len(luv.Perm))
			}
			pb := make([]float64, len(b))
			for i, src := range luv.Perm {
				pb[i] = b[src]
			}
			y, err := linalg.ForwardSub(luv.L, pb)
			if err != nil {
				return nil, err
			}
			return []Value{y}, nil
		},
	})

	reg(Spec{
		Name: "Back_Substitution", Library: "matrix", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * nOps,
			RequiredMemBytes: defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			luv, err := luInput(c, 0)
			if err != nil {
				return nil, err
			}
			y, err := c.Vector(1)
			if err != nil {
				return nil, err
			}
			x, err := linalg.BackSub(luv.U, y)
			if err != nil {
				return nil, err
			}
			return []Value{x}, nil
		},
	})

	reg(Spec{
		Name: "Matrix_Multiplication", Library: "matrix", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     2 * nOps * nOps * nOps,
			CommunicationBytes: 2 * defaultN * defaultN * 8,
			RequiredMemBytes:   3 * defaultN * defaultN * 8,
			BaseTime:           baseTimeFor(2 * nOps * nOps * nOps),
			Parallelizable:     true,
			SerialFraction:     0.05,
		},
		// The second operand may be a vector (treated as n x 1, producing
		// a vector) — the form Fig. 1's LES uses to compute X = inv(A)*b.
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			if len(c.In) > 1 {
				if v, ok := c.In[1].([]float64); ok {
					y, err := linalg.MatVec(a, v)
					if err != nil {
						return nil, err
					}
					return []Value{y}, nil
				}
			}
			b, err := c.Matrix(1)
			if err != nil {
				return nil, err
			}
			var m *linalg.Matrix
			if c.Nodes > 1 {
				m, err = linalg.MatMulParallel(a, b, c.Nodes)
			} else {
				m, err = linalg.MatMul(a, b)
			}
			if err != nil {
				return nil, err
			}
			return []Value{m}, nil
		},
	})

	reg(Spec{
		Name: "Matrix_Inversion", Library: "matrix", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:     2 * nOps * nOps * nOps,
			CommunicationBytes: defaultN * defaultN * 8,
			RequiredMemBytes:   3 * defaultN * defaultN * 8,
			BaseTime:           baseTimeFor(2 * nOps * nOps * nOps),
			Parallelizable:     true,
			SerialFraction:     0.1,
		},
		// Inverts from a prior LU decomposition, all columns in one solve
		// split over the granted nodes.
		Fn: func(c *Context) ([]Value, error) {
			lu, err := luInput(c, 0)
			if err != nil {
				return nil, err
			}
			inv, err := (&linalg.LU{L: lu.L, U: lu.U, Perm: lu.Perm}).Inverse(c.Nodes)
			if err != nil {
				return nil, err
			}
			return []Value{inv}, nil
		},
	})

	reg(Spec{
		Name: "Matrix_Vector_Multiply", Library: "matrix", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   2 * nOps * nOps,
			RequiredMemBytes: defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(2 * nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			x, err := c.Vector(1)
			if err != nil {
				return nil, err
			}
			y, err := linalg.MatVec(a, x)
			if err != nil {
				return nil, err
			}
			return []Value{y}, nil
		},
	})

	reg(Spec{
		Name: "Matrix_Add", Library: "matrix", InPorts: 2, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * nOps,
			RequiredMemBytes: 3 * defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			b, err := c.Matrix(1)
			if err != nil {
				return nil, err
			}
			s, err := linalg.Add(a, b)
			if err != nil {
				return nil, err
			}
			return []Value{s}, nil
		},
	})

	reg(Spec{
		Name: "Matrix_Transpose", Library: "matrix", InPorts: 1, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   nOps * nOps,
			RequiredMemBytes: 2 * defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			return []Value{a.Transpose()}, nil
		},
	})

	reg(Spec{
		Name: "Residual_Norm", Library: "matrix", InPorts: 3, OutPorts: 1,
		Params: repository.TaskParams{
			ComputationOps:   2 * nOps * nOps,
			RequiredMemBytes: defaultN * defaultN * 8,
			BaseTime:         baseTimeFor(2 * nOps * nOps),
		},
		Fn: func(c *Context) ([]Value, error) {
			a, err := c.Matrix(0)
			if err != nil {
				return nil, err
			}
			x, err := c.Vector(1)
			if err != nil {
				return nil, err
			}
			b, err := c.Vector(2)
			if err != nil {
				return nil, err
			}
			res, err := linalg.Residual(a, x, b)
			if err != nil {
				return nil, err
			}
			return []Value{res}, nil
		},
	})
}

func luInput(c *Context, i int) (*LUResult, error) {
	if i < 0 || i >= len(c.In) {
		return nil, fmt.Errorf("tasklib: no input %d", i)
	}
	lu, ok := c.In[i].(*LUResult)
	if !ok {
		return nil, fmt.Errorf("tasklib: input %d is %T, want *LUResult", i, c.In[i])
	}
	if lu == nil {
		return nil, fmt.Errorf("tasklib: input %d is a nil LUResult", i)
	}
	if err := checkMatrix(i, lu.L); err != nil {
		return nil, fmt.Errorf("%w (factor L)", err)
	}
	if err := checkMatrix(i, lu.U); err != nil {
		return nil, fmt.Errorf("%w (factor U)", err)
	}
	return lu, nil
}
