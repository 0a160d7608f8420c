"""RTL cache use case: the paper's Fig. 2(a) connectivity scenario."""
