"""Module/Parameter system — a torch.nn-like container hierarchy.

Modules register :class:`Parameter` leaves and child modules by
attribute assignment; :meth:`Module.parameters` walks the tree, and
``state_dict``/``load_state_dict`` serialize weights for checkpointing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as trainable model state.

    ``row_table`` marks an embedding table, read a few rows at a time:
    ``FlatAdam`` keeps its moments for the rows a step touched instead
    of in its flat buffer.
    """

    def __init__(self, data, name: str = "", row_table: bool = False):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True, name=name)
        self.row_table = row_table


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total count of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if name in state:
                value = np.asarray(state[name], dtype=np.float32)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                    )
                param.assign_(value.copy())


class ModuleList(Module):
    """An indexable container of submodules."""

    def __init__(self, modules: Optional[list] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self._modules[str(len(self._items))] = module
            self._items.append(module)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def __len__(self) -> int:
        return len(self._items)
