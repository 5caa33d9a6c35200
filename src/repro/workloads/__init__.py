"""Synthetic workload generators reproducing the paper's motivating load:
structured HEP path families, Zipf popularity, Poisson arrivals, and the
meta-data-burst analysis-job shape of §II-A (:mod:`repro.workloads.wan`
holds the E6-wan federation)."""

from repro.workloads.jobs import JobResult, JobSpec, run_job
from repro.workloads.namegen import (
    DEFAULT_EXPERIMENTS,
    hep_paths,
    path_stream,
    qserv_chunk_path,
    sequential_paths,
)
from repro.workloads.popularity import UniformChooser, ZipfChooser, poisson_arrivals

__all__ = [
    "hep_paths",
    "sequential_paths",
    "qserv_chunk_path",
    "path_stream",
    "DEFAULT_EXPERIMENTS",
    "ZipfChooser",
    "UniformChooser",
    "poisson_arrivals",
    "JobSpec",
    "JobResult",
    "run_job",
]
