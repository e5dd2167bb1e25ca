package ch

import "math"

// Sizing controls the generated database dimensions. The paper scales the
// TPC-H way: OrderLine = SF * 6,001,215 rows with exactly 15 order lines
// per order at load time (§5.1); TPC-C fixed ratios apply elsewhere.
type Sizing struct {
	Warehouses           int
	DistrictsPerWH       int
	CustomersPerDistrict int
	Items                int
	OrdersPerDistrict    int
	OrderLinesPerOrder   int
}

// SizingForScale derives dimensions from a TPC-H-style scale factor.
// Dimension tables shrink proportionally below SF 1 so that laptop-scale
// runs preserve the fact/dimension size ratios the queries exercise.
func SizingForScale(sf float64) Sizing {
	if sf <= 0 {
		sf = 0.001
	}
	olTotal := int64(math.Round(sf * 6_001_215))
	// One warehouse per worker thread is the paper's transactional setup
	// (§5.1); a 14-core socket therefore needs at least 14 warehouses even
	// at tiny scale factors, or the workers pile onto shared district rows
	// and wait-die retry storms dominate.
	w := int(math.Max(14, math.Round(sf)))
	s := Sizing{
		Warehouses:           w,
		DistrictsPerWH:       10,
		CustomersPerDistrict: clampInt(int(3000*sf), 30, 3000),
		Items:                clampInt(int(100_000*sf), 100, 100_000),
		OrderLinesPerOrder:   15,
	}
	orders := olTotal / int64(s.OrderLinesPerOrder)
	s.OrdersPerDistrict = int(orders / int64(w*s.DistrictsPerWH))
	if s.OrdersPerDistrict < 1 {
		s.OrdersPerDistrict = 1
	}
	return s
}

// TinySizing returns a minimal database for unit tests.
//
//htap:api the unit tests of ten packages load their CH database at this size
func TinySizing() Sizing {
	return Sizing{
		Warehouses:           2,
		DistrictsPerWH:       2,
		CustomersPerDistrict: 10,
		Items:                50,
		OrdersPerDistrict:    20,
		OrderLinesPerOrder:   15,
	}
}

// Orders returns the initial order count.
func (s Sizing) Orders() int64 {
	return int64(s.Warehouses) * int64(s.DistrictsPerWH) * int64(s.OrdersPerDistrict)
}

// OrderLines returns the initial order-line count.
func (s Sizing) OrderLines() int64 {
	return s.Orders() * int64(s.OrderLinesPerOrder)
}

// StockRows returns the initial stock count.
func (s Sizing) StockRows() int64 { return int64(s.Warehouses) * int64(s.Items) }

// Customers returns the initial customer count.
func (s Sizing) Customers() int64 {
	return int64(s.Warehouses) * int64(s.DistrictsPerWH) * int64(s.CustomersPerDistrict)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
