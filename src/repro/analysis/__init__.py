"""Closed-form models: Lemmas 1-6 and Eqs. (1)-(6) of the paper."""
