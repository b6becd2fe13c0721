// SQL routing: drives the full Fig. 4 query framework — SQL statements are
// rewritten into disjoint range queries, routed by the master node to
// partition-ID lists, and answered by scanning each routed partition with
// row-group pruning. Every answer is checked against a direct scan of the
// dataset over the same disjoint ranges; the example exits 1 on any mismatch.
package main

import (
	"fmt"
	"log"
	"os"

	"paw"
	"paw/internal/blockstore"
)

func main() {
	data := paw.GenerateTPCH(120_000, 31)
	hist := paw.UniformWorkload(data.Domain(), 50, 32)
	l, err := paw.Build(data, hist, paw.Options{
		Method: paw.MethodPAW, MinRows: 20, SampleRows: 12_000,
		Delta: paw.FractionOfDomain(data.Domain(), 0.0001),
	})
	if err != nil {
		log.Fatal(err)
	}
	master, err := paw.NewMaster(l, data.Names())
	if err != nil {
		log.Fatal(err)
	}
	store := blockstore.Materialize(l, data, blockstore.Config{})
	fmt.Printf("%s; master metadata: %d bytes\n\n", l, master.MemoryFootprint())

	statements := []string{
		"SELECT * FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20",
		"SELECT * FROM lineitem WHERE l_shipdate BETWEEN 100 AND 200 AND l_discount >= 0.05",
		"SELECT * FROM lineitem WHERE l_quantity <= 5 OR l_quantity >= 45",
		"SELECT * FROM lineitem WHERE NOT (l_tax > 0.04)",
		"SELECT * FROM lineitem WHERE l_extendedprice >= 90000 AND l_suppkey <= 1000",
	}
	mismatches := 0
	for _, stmt := range statements {
		plan, err := master.RouteSQL(stmt)
		if err != nil {
			log.Fatal(err)
		}
		var rows, direct int
		var nominal, read int64
		for _, rp := range plan.Ranges {
			for _, id := range rp.Parts {
				p, err := store.Partition(id)
				if err != nil {
					log.Fatal(err)
				}
				st, err := store.ScanPartition(id, rp.Range)
				if err != nil {
					log.Fatal(err)
				}
				rows += st.Matched
				nominal += p.Bytes()
				read += st.BytesRead
			}
			direct += data.CountInBox(rp.Range, nil)
		}
		fmt.Printf("%s\n  -> %d range(s), %d/%d partitions, %d rows (direct scan %d), %.2f MB nominal, %.2f MB after pruning\n\n",
			stmt, len(plan.Ranges), len(plan.PartitionIDs()), l.NumPartitions(), rows, direct,
			float64(nominal)/1e6, float64(read)/1e6)
		if rows != direct {
			mismatches++
		}
	}
	if mismatches > 0 {
		fmt.Printf("%d of %d statements disagree with the direct scan\n", mismatches, len(statements))
		os.Exit(1)
	}
	fmt.Printf("all %d statements match the direct scan\n", len(statements))
}
