"""jitstream: online distillation of a compact segmentation student on
streaming video, with adaptive teacher sampling."""

from .arch import (
    ArchConfig,
    ArchError,
    JITNet,
    count_params_from_config,
    estimate_flops,
)
from .distill import (
    DistillConfig,
    FrameRecord,
    JITNetStudent,
    StreamReport,
    TeacherError,
    TeacherInstance,
    adapt_on_frame,
    build_weight_map,
    offline_oracle_train,
    process_stream,
    rasterize_teacher,
    update_stride,
)
from .metrics import ConfusionAccumulator, CostModel, interval_series, mean_iou
from .streams import (
    EventSpec,
    NoisyTeacher,
    ObjectSpec,
    OracleTeacher,
    RecordedTeacher,
    SyntheticStreamConfig,
    TeacherNoise,
    gen_synthetic_stream,
)

__version__ = "0.1.0"
