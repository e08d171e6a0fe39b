"""In-memory data-cube engine: region-lattice crawling, attribution, joins, stores."""

from .attribution import (
    AttributionResult,
    ChurnDecomposition,
    EntityMetrics,
    RegionAmbientModel,
    SegmentedMetrics,
    attribute_density,
    churn_decompose,
    density_model,
    density_ras,
    density_ras_degenerate,
    numeric_path_ras,
    summable_model,
    summable_ras,
)
from .core import (
    ANY,
    EMPTY_REGION,
    NULL,
    AbstractCube,
    BaseTableGroupByCube,
    CellsetCube,
    Dimension,
    DimensionSchema,
    FeatureFrame,
    FeatureRequest,
    Instrumentation,
    Measure,
    Region,
    Table,
    build_cellset,
    filter_by_region,
    region_precedes,
)
from .crawler import (
    CrawlSpec,
    ResultCube,
    apply_pushdown,
    exhaustive_top_n,
    fd_holds,
    fd_violations,
    fim_crawl_spec,
    frequent_itemsets,
    naive_crawl,
    region_children,
    top_down_crawl,
    topn_crawl,
    transactions_to_table,
)
from .join import JoinSpec, JoinedCube, join_cubes
from .models import (
    AttributionModel,
    DiffModel,
    EntityMeasureModel,
    EntityModel,
    EntityWeightModel,
    EvaluationContext,
    FrequentItemsetModel,
    IdModel,
    LambdaModel,
    PushdownTerm,
    RegionAnalysisModel,
    SignalSpec,
    WindowOutlierModel,
)
from .store import (
    ChunkStore,
    RechunkedStore,
    chunk_by_partition,
    load_cellset,
    load_store,
    materialize,
    rechunk,
)

__version__ = "0.1.0"
