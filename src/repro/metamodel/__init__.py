"""A small metamodelling kernel — the repository's EMF/Ecore substitute.

The kernel provides just enough of Ecore's semantics for SSAM and the model
federation machinery described in the paper:

- :class:`MetaPackage` / :class:`MetaClass` / :class:`MetaAttribute` /
  :class:`MetaReference` — the metamodel layer (Ecore's ``EPackage`` /
  ``EClass`` / ``EAttribute`` / ``EReference``);
- :class:`ModelObject` — the instance layer (Ecore's ``EObject``) with typed
  slots, containment tracking and reflective access;
- :class:`ModelResource` — whole-model persistence (JSON) that *eagerly* loads
  every element, reproducing EMF's load-everything behaviour that the paper's
  scalability experiment (Table VI) hinges on;
- :mod:`repro.metamodel.validation` — machine-executable constraints.
"""

from repro.metamodel.core import (
    MetaAttribute,
    MetaClass,
    MetaPackage,
    MetaReference,
    ModelObject,
    MetamodelError,
    TypeCheckError,
)
from repro.metamodel.registry import PackageRegistry, global_registry
from repro.metamodel.serialization import (
    MemoryOverflowError,
    ModelResource,
    estimate_element_bytes,
)
from repro.metamodel.validation import (
    Constraint,
    Diagnostic,
    Severity,
    validate,
)
from repro.metamodel.xmi import XmiResource
from repro.metamodel.indexing import (
    ModelIndex,
    build_index,
    index_model_file,
)

__all__ = [
    "MetaAttribute",
    "MetaClass",
    "MetaPackage",
    "MetaReference",
    "ModelObject",
    "MetamodelError",
    "TypeCheckError",
    "PackageRegistry",
    "global_registry",
    "ModelResource",
    "MemoryOverflowError",
    "estimate_element_bytes",
    "Constraint",
    "Diagnostic",
    "Severity",
    "validate",
    "XmiResource",
    "ModelIndex",
    "build_index",
    "index_model_file",
]
