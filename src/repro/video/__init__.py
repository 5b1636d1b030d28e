"""Video substrate: FGS geometry, synthetic traces, R-D/PSNR models.

Stands in for the MPEG-4 FGS codec and the CIF Foreman bitstream used
by the paper (see DESIGN.md §2 for the substitution argument).
"""
