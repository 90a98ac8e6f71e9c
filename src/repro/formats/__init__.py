"""Raw-data access substrate: file format plugins and positional maps.

Mirrors Proteus' input-plugin architecture (Section 3.1 of the paper): each raw
file format (CSV, line-delimited JSON) gets a plugin that knows how to scan the
file, parse only the fields a query needs, and populate a *positional map* —
an index over byte offsets that acts as the "skeleton" of the file and makes
repeated accesses cheaper.
"""

from repro.formats.datafile import DataSource, DataSourceCatalog
from repro.formats.csv_plugin import CSVPlugin, write_csv
from repro.formats.json_plugin import JSONPlugin, write_json_lines
from repro.formats.positional_map import PositionalMap

__all__ = [
    "DataSource",
    "DataSourceCatalog",
    "CSVPlugin",
    "JSONPlugin",
    "PositionalMap",
    "write_csv",
    "write_json_lines",
]
