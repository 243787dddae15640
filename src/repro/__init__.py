"""Reproduction of Chan & Ioannidis, "An Efficient Bitmap Encoding
Scheme for Selection Queries" (SIGMOD 1999).

Public API highlights:

* :class:`~repro.bitmap.BitVector` — the bit-vector substrate;
* :func:`~repro.encoding.get_scheme` — the seven encoding schemes
  (E, R, I, ER, O, EI, EI*);
* :class:`~repro.index.BitmapIndex` — multi-component bitmap indexes
  with the Section 6 query rewrite/evaluation framework;
* :mod:`~repro.workload` / :mod:`~repro.queries` — the paper's synthetic
  data and query generators;
* :mod:`~repro.experiments` — regeneration of every table and figure;
* :mod:`~repro.obs` — unified observability (metrics + spans) across
  the storage, codec, engine and experiment layers;
* :class:`~repro.serve.QueryService` — concurrent query serving with
  shared-scan batching, result caching and admission control.
"""

from repro import obs
from repro._version import __version__
from repro.bitmap import BitVector
from repro.compress import available_codecs, get_codec
from repro.encoding import (
    ALL_SCHEME_NAMES,
    EncodingScheme,
    expected_scans,
    get_scheme,
    space_cost,
)
from repro.dictionary import AttributeIndex
from repro.index import BitmapIndex, IndexSpec, load_index, recommend, save_index, validate_index
from repro.serve import QueryService, ServiceConfig
from repro.table import ColumnConfig, Table
from repro.queries import (
    IntervalQuery,
    MembershipQuery,
    generate_query_set,
    paper_query_sets,
)
from repro.workload import DatasetSpec, generate_dataset, zipf_column

__all__ = [
    "__version__",
    "BitVector",
    "get_codec",
    "available_codecs",
    "get_scheme",
    "EncodingScheme",
    "ALL_SCHEME_NAMES",
    "expected_scans",
    "space_cost",
    "BitmapIndex",
    "IndexSpec",
    "recommend",
    "save_index",
    "load_index",
    "validate_index",
    "QueryService",
    "ServiceConfig",
    "Table",
    "ColumnConfig",
    "AttributeIndex",
    "IntervalQuery",
    "MembershipQuery",
    "generate_query_set",
    "paper_query_sets",
    "DatasetSpec",
    "generate_dataset",
    "zipf_column",
    "obs",
]
