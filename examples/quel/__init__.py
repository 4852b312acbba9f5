"""A QUEL front end and an alerter over the engine's maintained views.

The paper (and INGRES, its home system) writes view definitions as::

    define view V (R1.fields, R2.fields)
        where R1.x = R2.y and C_f

:mod:`quel.lexer`, :mod:`quel.parser` and :mod:`quel.builder` turn
exactly that shape into the typed view definitions the engine consumes;
:mod:`quel.alerter` is Section 4's proposed application, threshold
conditions over maintained views.  Neither is part of the cost model:
they sit on ``repro``'s public API the way an application would.  The
example scripts import this package as ``quel`` (``python
examples/x.py`` puts ``examples/`` on ``sys.path``); see README.md
beside it for the grammar.
"""
