"""CSV export and extra harness coverage."""

from repro.engine import run_population
from repro.harness.population import to_csv

#: One column per SliceMetrics field, CPI stack included.
CSV_HEADER = ("trace,family,generation,ipc,mpki,avg_load_latency,"
              "bubbles_per_branch,cpi_base,cpi_mispredict,cpi_frontend,"
              "cpi_memory")


def test_csv_export_shape():
    pop = run_population(n_slices=3, slice_length=1500, seed=31,
                         generations=("M1", "M5"))
    csv = to_csv(pop)
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # header + slices x generations
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 11
        float(cells[3])  # ipc parses
        assert cells[2] in ("M1", "M5")
        for cell in cells[3:]:  # every metric column is numeric
            float(cell)


def test_csv_roundtrips_metric_values():
    pop = run_population(n_slices=2, slice_length=1500, seed=32,
                         generations=("M3",))
    csv = to_csv(pop)
    rows = [l.split(",") for l in csv.strip().splitlines()[1:]]
    for row, m in zip(rows, pop.for_generation("M3")):
        assert abs(float(row[3]) - m.ipc) < 1e-3
        assert abs(float(row[5]) - m.average_load_latency) < 1e-3


def test_csv_emits_cpi_stack_columns():
    """The CPI-stack columns must carry the interval-model values, not
    dataclass defaults (the bug: ``to_csv`` silently dropped them)."""
    pop = run_population(n_slices=2, slice_length=1500, seed=33,
                         generations=("M1",))
    csv = to_csv(pop)
    header = csv.splitlines()[0].split(",")
    assert header[-4:] == ["cpi_base", "cpi_mispredict", "cpi_frontend",
                           "cpi_memory"]
    rows = [l.split(",") for l in csv.strip().splitlines()[1:]]
    for row, m in zip(rows, pop.for_generation("M1")):
        assert abs(float(row[7]) - m.cpi_base) < 1e-3
        assert abs(float(row[8]) - m.cpi_mispredict) < 1e-3
        assert abs(float(row[9]) - m.cpi_frontend) < 1e-3
        assert abs(float(row[10]) - m.cpi_memory) < 1e-3
    # The base fraction is real work, never zero on a real run.
    assert all(float(r[7]) > 0.0 for r in rows)
