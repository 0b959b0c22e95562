"""Every annotation in the package resolves to a name its module binds."""

import importlib
import inspect
import pkgutil
import typing

import morseshed


def _annotated():
    """(qualified name, object) of every module-level function, class and
    class method defined in the package."""
    for info in pkgutil.iter_modules(morseshed.__path__):
        mod = importlib.import_module(f"morseshed.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    unresolved = []
    seen = 0
    for qualname, obj in _annotated():
        seen += 1
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # a name the module does not bind, or a bad form
            unresolved.append(f"{qualname}: {exc}")
    assert seen > 100
    assert unresolved == []
