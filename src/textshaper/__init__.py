"""Bottom-up text detection toolkit.

Forward-path building blocks (snake-convolution feature pyramid with gated
attention fusion), rotated-rectangle contour shaping, polygon evaluation,
the file formats and synthetic fixtures that tie them together, and the
paper's four training losses with analytic gradients (reference only: there
is no training loop).
"""

__version__ = "0.1.0"

from .dataio import (AnnotationError, ImageFormatError, MapFileError, SynthBand, SynthSpec,
                     parse_annotations, read_geometry_maps, read_map, read_pgm, synth_maps,
                     write_annotations, write_geometry_maps, write_map, write_ppm)
from .evaluation import EvalReport, ImageCounts, aggregate, harmonic_f1, match_image, prf
from .geometry import TextPolygon, normalize_angle, polygon_area, polygon_iou, rasterize
from .grids import (ShapeMismatchError, bilinear_sample, conv2d, logistic, resize_bilinear,
                    upsample2x)
from .losses import loss_seg, loss_sr, loss_ss, smooth_l1
from .maps import GeometryMaps
from .pyramid import (AttentionParams, DsfParams, PyramidSpec, backbone_stub, dsf_forward,
                      geometry_maps_from_head, init_dsf_params, init_stub_params,
                      modulation_block)
from .shaping import (OVERLAP_COUNTER, CenterPointSet, ShapingConfig, accumulate_and_close,
                      build_components, extract_centers, farthest_point_sample, nms_baseline,
                      shape_text, trace_contours)
from .snakeconv import dsc_forward
